"""Reference implementations the differential tests compare against.

Each oracle is the straightforward version of an analysis or pass that
``src`` now computes a faster way; the tests assert both give the same
answer.  Nothing in ``src`` imports from here.
"""
