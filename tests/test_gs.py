"""Tests for the gather-scatter (gs_init / gs_op) utility."""

import numpy as np
import pytest

from repro.core.mesh import box_mesh_2d
from repro.parallel.exec import run_spmd
from repro.parallel.gs import GatherScatter, gs_init, gs_op_rank
from repro.parallel.machine import Machine
from repro.parallel.partition import recursive_spectral_bisection

M = Machine("t", alpha=1e-5, beta=1e-8, mxm_rate=1e8, other_rate=1e7)


def _gs_run(h, values, op="+", program=gs_op_rank):
    """Run a gather-scatter rank program on simulated ranks of handle ``h``."""
    args = [(hr, v, op) for hr, v in zip(h.rank_handles(), values)]
    return run_spmd(program, args, ranks=h.p, executor="sim", machine=M)


def _gs(h, values, op="+"):
    """Per-rank gather-scatter results, as the kernel's callers see them."""
    return _gs_run(h, values, op).results


def two_rank_handle():
    # ranks share global ids {2, 3}
    return gs_init([np.array([0, 1, 2, 3]), np.array([2, 3, 4, 5])])


class TestSetup:
    def test_shared_detection(self):
        h = two_rank_handle()
        assert h.n_shared == 2
        assert h.pair_counts == {(0, 1): 2}
        assert h.max_rank_volume() == 2
        assert list(h.neighbor_counts()) == [1, 1]

    def test_n_validation(self):
        with pytest.raises(ValueError):
            gs_init([np.array([0, 1])], n=3)
        gs_init([np.array([0, 1])], n=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GatherScatter([])


class TestGsOp:
    def test_sum_shared(self):
        h = two_rank_handle()
        out = _gs(h, [np.array([1.0, 2, 3, 4]), np.array([10.0, 20, 30, 40])])
        assert np.allclose(out[0], [1, 2, 13, 24])
        assert np.allclose(out[1], [13, 24, 30, 40])

    def test_max_and_min(self):
        h = two_rank_handle()
        a = [np.array([1.0, 2, 3, 4]), np.array([10.0, -20, 30, 40])]
        mx = _gs(h, a, op="max")
        mn = _gs(h, a, op="min")
        assert mx[0][2] == 10.0 and mn[1][1] == -20.0

    def test_multiply(self):
        h = two_rank_handle()
        out = _gs(h, [np.ones(4) * 2, np.ones(4) * 3], op="*")
        assert out[0][2] == pytest.approx(6.0)
        assert out[0][0] == pytest.approx(2.0)

    def test_unknown_op(self):
        h = two_rank_handle()
        with pytest.raises(ValueError):
            _gs(h, [np.zeros(4), np.zeros(4)], op="xor")

    def test_intra_rank_duplicates_summed(self):
        h = gs_init([np.array([0, 0, 1])])
        out = _gs(h, [np.array([1.0, 2.0, 5.0])])
        assert np.allclose(out[0], [3, 3, 5])

    def test_vector_mode(self):
        h = two_rank_handle()
        v0 = np.arange(8.0).reshape(4, 2)
        v1 = np.arange(8.0, 16.0).reshape(4, 2)
        out = _gs(h, [v0, v1])
        assert out[0].shape == (4, 2)
        assert np.allclose(out[0][2], v0[2] + v1[0])
        assert np.allclose(out[1][1], v0[3] + v1[1])

    def test_shape_mismatch_raises(self):
        h = two_rank_handle()
        with pytest.raises(ValueError):
            _gs(h, [np.zeros(3), np.zeros(4)])

    def test_wrong_rank_count(self):
        h = two_rank_handle()
        with pytest.raises(ValueError):
            _gs(h, [np.zeros(4)])


class TestCostAccounting:
    def test_comm_charged_once_per_pair(self):
        h = two_rank_handle()
        row = _gs_run(h, [np.zeros(4), np.zeros(4)]).merged["phases"]["exchange"]
        assert row["messages"] == 2  # one bidirectional exchange
        assert row["words"] == 4  # 2 shared ids each way
        assert row["modeled_seconds_max"] == M.msg_time(2)

    def test_vector_mode_scales_volume(self):
        h = two_rank_handle()
        run = _gs_run(h, [np.zeros((4, 3)), np.zeros((4, 3))])
        assert run.merged["phases"]["exchange"]["words"] == 12


class TestAgainstSerialAssembler:
    def test_matches_dssum_on_partitioned_mesh(self):
        """Distributed gs_op(+) must reproduce the serial direct-stiffness sum."""
        from repro.core.assembly import Assembler
        import scipy.sparse as sp

        mesh = box_mesh_2d(4, 4, 3)
        a = Assembler.for_mesh(mesh)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(mesh.local_shape)
        expect = a.dssum(u)

        part = recursive_spectral_bisection(
            sp.csr_matrix(mesh.element_adjacency()), 4
        )
        ids = [mesh.global_ids[part == p] for p in range(4)]
        vals = [u[part == p] for p in range(4)]
        h = gs_init(ids)
        out = _gs(h, vals)
        for p in range(4):
            assert np.allclose(out[p], expect[part == p])

    def test_partitioned_volume_below_serial_total(self):
        import scipy.sparse as sp

        mesh = box_mesh_2d(4, 4, 4)
        part = recursive_spectral_bisection(sp.csr_matrix(mesh.element_adjacency()), 4)
        ids = [mesh.global_ids[part == p] for p in range(4)]
        h = gs_init(ids)
        # shared nodes across ranks is far less than all interface nodes
        assert 0 < h.n_shared < mesh.n_nodes / 4


# ---------------------------------------------------------------------------
# Oracles: the dict-loop handle builder and the ``ufunc.at`` pre-reduce that
# the array-built set-up and the ``bincount`` pre-reduce replaced.  Both must
# be reproduced exactly (array-equal handles, bitwise-equal gs_op results).
# ---------------------------------------------------------------------------
def _dict_loop_pattern(local_ids):
    """Reference set-up: (shared_ids, pair_counts, handles) by dict loops."""
    from repro.parallel.gs import RankGS

    p = len(local_ids)
    flat = [np.asarray(ids).ravel() for ids in local_ids]
    touch = {}
    for r, ids in enumerate(flat):
        for g in np.unique(ids):
            touch.setdefault(int(g), []).append(r)
    shared_ids = {g: rs for g, rs in touch.items() if len(rs) > 1}
    pair_counts = {}
    for g, rs in shared_ids.items():
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                key = (rs[i], rs[j])
                pair_counts[key] = pair_counts.get(key, 0) + 1

    pair_ids = {}
    for g in sorted(shared_ids):
        rs = shared_ids[g]
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                pair_ids.setdefault((rs[i], rs[j]), []).append(g)

    handles = []
    for r in range(p):
        uniq, inv = np.unique(flat[r], return_inverse=True)
        pos_of = {int(g): i for i, g in enumerate(uniq)}
        neighbors = sorted((b if a == r else a) for (a, b) in pair_ids if r in (a, b))
        send_pos, pair_arr = {}, {}
        for q in neighbors:
            gs = pair_ids[(min(r, q), max(r, q))]
            send_pos[q] = np.array([pos_of[g] for g in gs], dtype=np.intp)
            pair_arr[q] = np.asarray(gs, dtype=np.int64)
        by_sig = {}
        for g in sorted(shared_ids):
            rs = shared_ids[g]
            if r in rs:
                by_sig.setdefault(tuple(rs), []).append(g)
        groups = []
        for sig, gs in by_sig.items():
            gs_arr = np.asarray(gs, dtype=np.int64)
            sel = np.array([pos_of[g] for g in gs], dtype=np.intp)
            peer_idx = {q: np.searchsorted(pair_arr[q], gs_arr) for q in sig if q != r}
            groups.append((sig, sel, peer_idx))
        handles.append(RankGS(r, p, np.asarray(local_ids[r]).shape, uniq, inv,
                              neighbors, send_pos, groups))
    return shared_ids, pair_counts, handles


def _add_at_gs_op_rank(comm, handle, value, op="+"):
    """Reference rank program: the ``ufunc.at`` pre-reduce for every op."""
    from repro.parallel.protocol import REDUCE_OPS

    ufunc, init = REDUCE_OPS[op]
    v = np.asarray(value, dtype=float)
    vec_width = 1 if v.shape == handle.shape else v.shape[-1]
    flat = v.reshape(-1, vec_width)
    loc = np.full((handle.uniq.size, vec_width), init)
    ufunc.at(loc, handle.inv, flat)
    recv = {}
    for q in handle.neighbors:
        recv[q] = np.asarray(comm.exchange(q, loc[handle.send_pos[q]]))
    res = loc.copy()
    for ranks, sel, peer_idx in handle.groups:
        acc = np.full((sel.size, vec_width), init)
        for q in ranks:
            acc = ufunc(acc, loc[sel] if q == handle.rank else recv[q][peer_idx[q]])
        res[sel] = acc
    out = res[handle.inv]
    return out.reshape(handle.shape + ((vec_width,) if vec_width > 1 else ()))


def _partitioned_ids(mesh, p):
    import scipy.sparse as sp

    if mesh.ndim == 2:
        # A px x py block partition: on a doubly periodic mesh the domain
        # corners are one id, shared by four ranks once px, py >= 2.
        px, py = {1: (1, 1), 2: (2, 1), 4: (2, 2), 8: (4, 2)}[p]
        c = mesh.element_centroids()
        part = (np.minimum((c[:, 0] * px).astype(int), px - 1)
                + px * np.minimum((c[:, 1] * py).astype(int), py - 1))
    elif p == 1:
        part = np.zeros(mesh.K, dtype=np.int64)
    else:
        part = recursive_spectral_bisection(
            sp.csr_matrix(mesh.element_adjacency()), p, coords=mesh.element_centroids()
        )
    return part, [mesh.global_ids[part == r] for r in range(p)]


def _assert_handles_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.rank, a.size, a.shape) == (b.rank, b.size, b.shape)
        for name in ("uniq", "inv"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert a.neighbors == b.neighbors
        assert all(type(q) is int for q in a.neighbors)
        assert list(a.send_pos) == list(b.send_pos)
        for q in b.send_pos:
            assert a.send_pos[q].dtype == b.send_pos[q].dtype
            assert np.array_equal(a.send_pos[q], b.send_pos[q])
        assert [g[0] for g in a.groups] == [g[0] for g in b.groups]
        for (_, sel_a, pi_a), (sig, sel_b, pi_b) in zip(a.groups, b.groups):
            assert all(type(q) is int for q in sig)
            assert sel_a.dtype == sel_b.dtype and np.array_equal(sel_a, sel_b)
            assert list(pi_a) == list(pi_b)
            for q in pi_b:
                assert pi_a[q].dtype == pi_b[q].dtype
                assert np.array_equal(pi_a[q], pi_b[q])


def _oracle_meshes():
    from repro.core.mesh import box_mesh_3d

    return {
        "box3d": box_mesh_3d(3, 3, 3, 3),
        "periodic2d": box_mesh_2d(4, 4, 3, periodic=(True, True)),
    }


class TestArrayBuiltPatternMatchesDictLoops:
    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("which", ["box3d", "periodic2d"])
    def test_rank_handles_equal(self, which, p):
        mesh = _oracle_meshes()[which]
        _, ids = _partitioned_ids(mesh, p)
        h = gs_init(ids)
        shared_ids, pair_counts, want = _dict_loop_pattern(ids)
        assert h.n_shared == len(shared_ids)
        assert h.pair_counts == pair_counts
        ref_vol = np.zeros(p, dtype=np.int64)
        ref_cnt = np.zeros(p, dtype=np.int64)
        for (a, b), c in pair_counts.items():
            ref_vol[[a, b]] += c
            ref_cnt[[a, b]] += 1
        assert h.max_rank_volume() == int(ref_vol.max())
        assert np.array_equal(h.neighbor_counts(), ref_cnt)
        _assert_handles_equal(h.rank_handles(), want)

    def test_periodic_corners_shared_by_four_ranks(self):
        mesh = _oracle_meshes()["periodic2d"]
        _, ids = _partitioned_ids(mesh, 4)
        sigs = [g[0] for h in gs_init(ids).rank_handles() for g in h.groups]
        assert (0, 1, 2, 3) in sigs

    def test_irregular_ids_and_no_sharing(self):
        ids = [np.array([[5, 9], [9, 2]]), np.array([7, 5, 11]),
               np.array([2, 5, 7, 7]), np.array([13])]
        h = gs_init(ids)
        shared_ids, pair_counts, want = _dict_loop_pattern(ids)
        assert h.n_shared == len(shared_ids) == 3
        assert h.pair_counts == pair_counts
        _assert_handles_equal(h.rank_handles(), want)
        solo = gs_init([np.array([3, 1, 3])])
        assert solo.n_shared == 0 and solo.pair_counts == {}
        _assert_handles_equal(solo.rank_handles(),
                              _dict_loop_pattern([np.array([3, 1, 3])])[2])


class TestBincountPreReduceMatchesAddAt:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("which", ["box3d", "periodic2d"])
    def test_sum_bitwise(self, which, width, p):
        mesh = _oracle_meshes()[which]
        part, ids = _partitioned_ids(mesh, p)
        rng = np.random.default_rng(7 + p + width)
        u = rng.standard_normal(mesh.local_shape + ((width,) if width > 1 else ()))
        vals = [u[part == r] for r in range(p)]
        h = gs_init(ids)
        got = _gs(h, vals, "+")
        want = _gs_run(h, vals, "+", program=_add_at_gs_op_rank).results
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("op", ["*", "max", "min"])
    def test_other_ops_unchanged(self, op):
        mesh = _oracle_meshes()["periodic2d"]
        part, ids = _partitioned_ids(mesh, 4)
        rng = np.random.default_rng(3)
        u = 1.0 + 0.1 * rng.standard_normal(mesh.local_shape + (2,))
        vals = [u[part == r] for r in range(4)]
        h = gs_init(ids)
        want = _gs_run(h, vals, op, program=_add_at_gs_op_rank).results
        for a, b in zip(_gs(h, vals, op), want):
            assert np.array_equal(a, b)

    def test_signed_zeros_match(self):
        h = gs_init([np.array([0, 0, 1]), np.array([1, 2])])
        vals = [np.array([-0.0, -0.0, -0.0]), np.array([-0.0, -0.0])]
        out = _gs(h, vals)
        assert not np.signbit(out[0]).any() and not np.signbit(out[1]).any()


class TestComponentWidthCheck:
    def test_mixed_widths_rejected(self):
        h = two_rank_handle()
        with pytest.raises(ValueError, match="components"):
            _gs(h, [np.zeros(4), np.zeros((4, 3))])

    def test_two_different_vector_widths_rejected(self):
        h = two_rank_handle()
        with pytest.raises(ValueError, match="components"):
            _gs(h, [np.zeros((4, 2)), np.zeros((4, 3))])
