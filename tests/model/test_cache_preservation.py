"""Regression tests: flush-on-read must not destroy matrix caches.

Before the rebuild-free update path, ``Matrix.resize`` cleared the cached
``indptr``/transpose even when the dimensions were unchanged, and
``SocialGraph._flush`` ran a resize of every relation on *every* property
access -- so a read-only workload recomputed O(nnz) derived state per read.
These tests pin the fix: object identity of the caches across reads that
change nothing, and correct refresh when something does change.
"""

import numpy as np

from repro.graphblas import ops
from repro.graphblas.matrix import Matrix
from repro.graphblas.types import INT64
from tests.conftest import build_paper_graph, paper_update


def small_matrix() -> Matrix:
    rng = np.random.default_rng(11)
    return Matrix.from_coo(
        rng.integers(0, 6, 15), rng.integers(0, 5, 15), rng.integers(1, 9, 15),
        6, 5, dtype=INT64, dup_op=ops.plus,
    )


class TestMatrixResize:
    def test_same_dims_is_noop(self):
        m = small_matrix()
        ip = m.indptr
        t = m.T
        m.resize(6, 5)
        assert m.indptr is ip
        assert m.T is t

    def test_grow_extends_indptr_in_place(self):
        m = small_matrix()
        ip = m.indptr
        m.resize(9, 5)
        assert m.indptr.size == 10
        assert m.indptr[:7].tolist() == ip[:7].tolist()
        assert (m.indptr[7:] == ip[-1]).all()
        # and the extended cache equals a cold rebuild
        fresh = Matrix.from_coo(*m.to_coo(), 9, 5, dtype=INT64)
        assert m.indptr.tolist() == fresh.indptr.tolist()

    def test_grow_drops_transpose(self):
        m = small_matrix()
        t = m.T
        m.resize(6, 8)
        assert m.T is not t
        assert m.T.shape == (8, 6)

    def test_shrink_still_filters(self):
        m = small_matrix()
        m.indptr
        m.resize(3, 3)
        assert m.shape == (3, 3)
        r, c, _ = m.to_coo()
        assert (r < 3).all() and (c < 3).all()


class TestSocialGraphFlush:
    def test_repeated_reads_preserve_identity(self):
        g = build_paper_graph()
        likes = g.likes
        ip = likes.indptr
        t = likes.T
        for _ in range(3):
            assert g.likes is likes
            assert g.likes.indptr is ip
            assert g.likes.T is t
            # reads of the *other* relations must not clobber likes' caches
            g.root_post, g.friends, g.commented
            assert likes.indptr is ip and likes.T is t

    def test_update_refreshes_values(self):
        g = build_paper_graph()
        likes = g.likes
        stale_ip = likes.indptr
        nvals = likes.nvals
        g.apply(paper_update())
        fresh = g.likes
        assert fresh.nvals == nvals + 2
        assert fresh.indptr is not stale_ip
        # spliced view equals a cold canonical rebuild
        r, c, v = fresh.to_coo()
        rebuilt = Matrix.from_coo(r, c, v, fresh.nrows, fresh.ncols, dtype=fresh.dtype)
        assert fresh.isequal(rebuilt)
        assert fresh.indptr.tolist() == rebuilt.indptr.tolist()

    def test_both_storages_preserve_caches(self):
        """The in-memory and the out-of-core arena backends alike."""
        for storage in ("heap", "mmap"):
            g = build_paper_graph_with(storage)
            likes = g.likes
            ip = likes.indptr
            assert g.likes.indptr is ip


def build_paper_graph_with(storage: str):
    from repro.model import SocialGraph
    from repro.model.changes import ChangeSet

    g = SocialGraph(storage=storage)
    g.apply(ChangeSet(list(build_paper_graph().to_change_stream())))
    return g
