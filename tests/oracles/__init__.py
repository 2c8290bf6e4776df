"""Reference implementations the production paths are tested against.

One module per layer that has a single execution path in ``src/``:

- ``diversity``   — §3.5 greedy wscore loop (vs the rerank array kernel);
- ``coverage``    — Definition 7 per-row coverage (vs ``MiningKernel``);
- ``lca``         — §3.2 object loop over row pairs (vs the code-based LCA);
- ``cart_forest`` — per-node recursive CART forest (vs the histogram forest);
- ``selection``   — §3.1 with a fresh memo per join graph (vs the memo the
  graphs of a question share);
- ``eager``       — column-copying joins and σ(R_1 × … × R_p) (vs the
  index-vector pipeline), and the per-group aggregate (vs the executor's
  all-groups-at-once pass);
- ``csv_cells``   — CSV ingest with every cell parsed on its own (vs the
  column casts and per-distinct parsing of ``db/csvio.py``).

They are deliberately naive and read like the definitions.  Nothing under
``src/`` may import from here.  Where a module has ``swap_in(monkeypatch)``,
it replaces the production layer with the oracle for one test, so whole
minings and whole questions can be compared, not only single calls.
"""
