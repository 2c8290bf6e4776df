"""Reference implementations the production paths are tested against.

Deliberately naive and independent of the code under ``src/`` they
check: plain Python over the public data model, no caches, no arrays.
"""
