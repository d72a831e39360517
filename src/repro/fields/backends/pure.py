"""The zero-dependency bulk-kernel backend.

A thin strategy object: every kernel forwards to the field's own
``_*_pure`` loop (the pre-backend implementations, now unmetered — the
``Field`` wrappers meter before dispatching).  Exists so "which backend
computed this" is always answerable and so the numpy backend has a
uniform fallback target.
"""

from __future__ import annotations


class PurePythonBackend:
    """Bulk kernels as plain python loops over the field's scalar ops."""

    name = "python"

    __slots__ = ("field",)

    def __init__(self, field):
        self.field = field

    def mul_many(self, avec, bvec):
        return self.field._mul_many_pure(avec, bvec)

    def dot(self, avec, bvec):
        return self.field._dot_pure(avec, bvec)

    def axpy_many(self, acc, xs, c):
        return self.field._axpy_many_pure(acc, xs, c)

    def horner_columns(self, columns, xs):
        return self.field._horner_columns_pure(columns, xs)

    def dot_rows(self, rows, vec):
        return self.field._dot_rows_pure(rows, vec)

    def batch_inv(self, vec):
        return self.field._batch_inv_pure(vec)
