"""The gather-scatter communication kernel (Section 6; Tufo's thesis [27]).

"The principal communication kernel is the gather-scatter operation
required for the residual vector assembly procedure ... a single
local-to-local transformation": values of shared global nodes are
exchanged between the owning processors and combined with a
commutative/associative reduction, in one communication phase.

The interface mirrors the paper's stand-alone utility:

    handle = gs_init(global-node-numbers, n)
    ierr   = gs_op(u, op, handle)

Since the comm-protocol refactor this is a true SPMD kernel: the setup
phase (:func:`gs_init`) analyzes the global sharing pattern and cuts one
:class:`RankGS` handle per rank; the operation itself is the rank program
:func:`gs_op_rank`, which runs unmodified on every
:class:`~repro.parallel.protocol.Comm` substrate — simulated alpha-beta
clocks or real processes.  Each rank pre-reduces its own copies, exchanges
interface values pairwise with neighbors in ascending rank order
(deadlock-free), and folds contributions **in ascending rank order** so
the result is bitwise-identical across substrates.  Vector mode (multiple
dofs per node, e.g. the d velocity components) sends all components of a
shared node in the same message, exactly the "vector mode" optimization
the paper describes.

There is one way to run it: cut the handles once, then run
:func:`gs_op_rank` on every rank through
:func:`~repro.parallel.exec.run_spmd` (or call it inside a larger rank
program, as the distributed CG does)::

    handles = gs_init(ids).rank_handles()
    run = run_spmd(gs_op_rank, [(h, v, "+") for h, v in zip(handles, vals)])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .protocol import REDUCE_OPS, Comm

__all__ = ["gs_init", "GatherScatter", "RankGS", "gs_op_rank"]

@dataclass
class RankGS:
    """One rank's view of a gather-scatter pattern (static setup data).

    Built once by :meth:`GatherScatter.rank_handles`; consumed by
    :func:`gs_op_rank` on any substrate.  All arrays are positional
    indices, precomputed so the hot path does no id arithmetic.
    """

    rank: int
    size: int
    shape: Tuple[int, ...]  #: shape of this rank's value array (id layout)
    uniq: np.ndarray  #: sorted unique global ids on this rank
    inv: np.ndarray  #: flat local index -> position in ``uniq``
    neighbors: List[int]  #: peer ranks sharing ids, ascending
    send_pos: Dict[int, np.ndarray]  #: per peer: positions in ``uniq`` shared
    #: combine plan: (sharing ranks ascending, positions in ``uniq``,
    #: per-peer index into that peer's exchange buffer)
    groups: List[Tuple[Tuple[int, ...], np.ndarray, Dict[int, np.ndarray]]]


def gs_op_rank(comm: Comm, handle: RankGS, value: np.ndarray, op: str = "+"):
    """The gather-scatter rank program: one rank's gs_op on any substrate.

    Pre-reduces local duplicate ids, exchanges interface values with each
    neighbor in ascending rank order, then folds every shared id's
    contributions in ascending rank order (canonical, bitwise-stable).
    Returns this rank's updated values, shaped like the input.
    """
    if op not in REDUCE_OPS:
        raise ValueError(f"unknown op {op!r}; choose from {sorted(REDUCE_OPS)}")
    ufunc, init = REDUCE_OPS[op]

    v = np.asarray(value, dtype=float)
    base = handle.shape
    if v.shape == base:
        vec_width = 1
        flat = v.reshape(-1, 1)
    elif v.shape[: len(base)] == base and v.ndim == len(base) + 1:
        vec_width = v.shape[-1]
        flat = v.reshape(-1, vec_width)
    else:
        raise ValueError(
            f"rank {handle.rank}: value shape {v.shape} does not match ids {base}"
        )

    with comm.trace("gs_op"):
        # Local pre-reduce: fold this rank's own copies in index order.
        # ``bincount`` sums each bin in input order from +0.0, exactly as
        # ``add.at`` does, at a fraction of its cost; component c of
        # position i is bin ``i * vec_width + c``.
        if op == "+":
            ids = handle.inv
            if vec_width > 1:
                ids = (ids[:, None] * vec_width + np.arange(vec_width)).ravel()
            loc = np.bincount(
                ids, weights=flat.ravel(), minlength=handle.uniq.size * vec_width
            ).reshape(-1, vec_width)
        else:
            loc = np.full((handle.uniq.size, vec_width), init)
            ufunc.at(loc, handle.inv, flat)
        comm.compute(flat.size, mxm_fraction=0.0)

        # One pairwise exchange per neighbor, ascending rank order.
        recv: Dict[int, np.ndarray] = {}
        for q in handle.neighbors:
            send = loc[handle.send_pos[q]]
            recv[q] = np.asarray(
                comm.exchange(q, send, words=float(send.shape[0] * vec_width))
            )
            if recv[q].shape[1] != vec_width:
                raise ValueError(
                    f"rank {q} carries {recv[q].shape[1]} components per value "
                    f"but rank {handle.rank} carries {vec_width}; all ranks "
                    "must agree"
                )

        # Canonical combine: every shared id folds its sharing ranks'
        # pre-reduced contributions in ascending rank order.
        res = loc.copy()
        for ranks, sel, peer_idx in handle.groups:
            acc = np.full((sel.size, vec_width), init)
            for q in ranks:
                contrib = loc[sel] if q == handle.rank else recv[q][peer_idx[q]]
                acc = ufunc(acc, contrib)
            res[sel] = acc

    return res[handle.inv].reshape(v.shape)


class GatherScatter:
    """Exchange-and-reduce over shared global nodes of a partitioned field.

    Parameters
    ----------
    local_ids:
        One int array per rank: the global id of every local value (any
        shape; flattened internally).  Equal ids — across or within ranks —
        are combined by :func:`gs_op_rank`.
    """

    def __init__(self, local_ids: Sequence[np.ndarray]):
        if not local_ids:
            raise ValueError("need at least one rank")
        self.p = len(local_ids)
        self.local_ids = [np.asarray(ids).ravel() for ids in local_ids]
        self.local_shapes = [np.asarray(ids).shape for ids in local_ids]
        self.n_global = int(max(ids.max() for ids in self.local_ids)) + 1
        self._unique = [np.unique(ids, return_inverse=True) for ids in self.local_ids]

        # Which ranks touch each global id: every rank's unique ids, stably
        # sorted by id, so each id's run lists its ranks in ascending order.
        ids = np.concatenate([u for u, _ in self._unique])
        ranks = np.repeat(np.arange(self.p), [u.size for u, _ in self._unique])
        order = np.argsort(ids, kind="stable")
        ids, ranks = ids[order], ranks[order]
        start = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        count = np.diff(np.r_[start, ids.size])
        shared = count > 1
        #: ids shared by >= 2 ranks, ascending
        self._shared = ids[start[shared]]
        # Signature matrix: row i holds the ranks sharing ``_shared[i]``,
        # ascending, padded with ``p``.
        in_shared = np.repeat(shared, count)
        row = np.repeat(np.cumsum(shared) - 1, count)[in_shared]
        col = (np.arange(ids.size) - np.repeat(start, count))[in_shared]
        self._sig = np.full((self._shared.size, int(count.max())), self.p)
        self._sig[row, col] = ranks[in_shared]

        # Wire lists: the ids each rank pair (a < b) shares, ascending (the
        # order of every exchange buffer).  Every pair of signature columns
        # contributes the rows where both hold a rank; a stable sort by pair
        # keeps each pair's ids in row (ascending id) order.
        i, j = np.triu_indices(self._sig.shape[1], 1)
        ok = self._sig[:, j] < self.p
        key = (self._sig[:, i] * self.p + self._sig[:, j])[ok]
        g = np.broadcast_to(self._shared[:, None], ok.shape)[ok]
        order = np.argsort(key, kind="stable")
        keys, cut = np.unique(key[order], return_index=True)
        self._pair_ids: Dict[Tuple[int, int], np.ndarray] = {
            (int(k) // self.p, int(k) % self.p): ids_k
            for k, ids_k in zip(keys, np.split(g[order], cut[1:]))
        }
        # Pairwise exchange word counts (for the cost model): every pair of
        # ranks sharing ids exchanges that many node values.
        self.pair_counts = {k: int(v.size) for k, v in self._pair_ids.items()}
        self._rank_handles: Optional[List[RankGS]] = None

    # -------------------------------------------------------------- metrics
    @property
    def n_shared(self) -> int:
        """Number of global nodes shared between at least two ranks."""
        return int(self._shared.size)

    def max_rank_volume(self) -> int:
        """Largest per-rank communication volume (words, scalar mode)."""
        vol = np.zeros(self.p, dtype=np.int64)
        for (a, b), c in self.pair_counts.items():
            vol[a] += c
            vol[b] += c
        return int(vol.max()) if self.p > 1 else 0

    def neighbor_counts(self) -> np.ndarray:
        """Number of communication partners per rank."""
        cnt = np.zeros(self.p, dtype=np.int64)
        for a, b in self.pair_counts:
            cnt[a] += 1
            cnt[b] += 1
        return cnt

    # --------------------------------------------------------- rank handles
    def rank_handles(self) -> List[RankGS]:
        """Cut the global pattern into per-rank :class:`RankGS` handles."""
        if self._rank_handles is not None:
            return self._rank_handles

        # One combine group per distinct sharing signature, ordered by its
        # first shared id; within a group the ids stay ascending.
        _, first, label = np.unique(
            self._sig, axis=0, return_index=True, return_inverse=True
        )
        lead = first[label.ravel()]  # each row's group, named by its first row
        rows = np.argsort(lead, kind="stable")
        _, cut = np.unique(lead[rows], return_index=True)
        groups_all = [
            (
                tuple(int(q) for q in self._sig[idx[0]] if q < self.p),
                self._shared[idx],
            )
            for idx in np.split(rows, cut[1:])
            if idx.size
        ]

        handles = []
        for r in range(self.p):
            uniq, inv = self._unique[r]
            neighbors = sorted(
                (b if a == r else a) for (a, b) in self._pair_ids if r in (a, b)
            )
            pair_arr = {q: self._pair_ids[(min(r, q), max(r, q))] for q in neighbors}
            send_pos = {q: np.searchsorted(uniq, pair_arr[q]) for q in neighbors}
            # Per group, where each peer's contribution sits in that peer's
            # exchange buffer.
            groups = [
                (
                    sig,
                    np.searchsorted(uniq, gs),
                    {q: np.searchsorted(pair_arr[q], gs) for q in sig if q != r},
                )
                for sig, gs in groups_all
                if r in sig
            ]
            handles.append(
                RankGS(
                    rank=r,
                    size=self.p,
                    shape=self.local_shapes[r],
                    uniq=uniq,
                    inv=inv,
                    neighbors=neighbors,
                    send_pos=send_pos,
                    groups=groups,
                )
            )
        self._rank_handles = handles
        return handles


def gs_init(local_ids: Sequence[np.ndarray], n: Optional[int] = None) -> GatherScatter:
    """Build a gather-scatter handle (the paper's ``gs_init`` entry point).

    ``n`` (the paper's explicit length argument) is accepted for interface
    fidelity and validated against the id arrays when provided.
    """
    handle = GatherScatter(local_ids)
    if n is not None:
        total = sum(ids.size for ids in handle.local_ids)
        if total != n:
            raise ValueError(f"id arrays hold {total} entries, caller said {n}")
    return handle
