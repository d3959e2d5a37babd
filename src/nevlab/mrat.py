"""Empty.  The multivariate rational functions and admissible derivative sets
that lived here had no caller: every curve nevlab handles is a map of C, whose
admissible set is always (0, 1, ..., n), and `expfunc.wronskian` is the one
Wronskian.  The module stays only because the benchmark's tracer
(`perfbench/tracing.py`, `MODULES`) imports it by name, and `perfbench/` changes
only in a change whose sole subject is the benchmark; the first change after
the one that drops "mrat" from that list deletes this file.
"""
