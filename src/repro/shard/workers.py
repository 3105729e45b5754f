"""Shard workers: one shard's CG numerics, one method per phase.

A :class:`ShardWorker` owns one shard's fields; the engine's
:class:`~repro.shard.engine.CrewSweep` runs every CG phase as a loop
over all workers in shard order, reduces their partial dot products,
and only then starts the next phase.  Halo mailboxes are written at the
end of one phase and read at the start of a later one, so the phase
order is what makes the single-buffered exchange correct.  Shards run
in order in one process; the decomposition models the fabric's, not
the host's.
"""

from __future__ import annotations

import numpy as np

from repro.shard.halo import ShardFields
from repro.shard.layout import OPPOSITE, ShardBox


class ShardWorker:
    """One shard's CG numerics between the sweep's phases.

    ``board`` is the full-grid scratch the sweep shares with every
    worker: multigrid residual/correction staging between phases, and
    the gather target.  ``field_options`` go to
    :class:`~repro.shard.halo.ShardFields`."""

    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        box: ShardBox,
        neighbors: dict[str, int | None],
        outboxes: list[dict[str, np.ndarray]],
        board: np.ndarray,
        **field_options,
    ):
        self.fields = f = ShardFields(arrays, box, **field_options)
        self.jacobi, self.mg = f.jacobi, f.mg
        self.outbox = outboxes[box.index]
        # My halo source in direction d is that neighbour's plane
        # published *toward me* — its OPPOSITE[d] mailbox.
        self.inboxes: dict[str, np.ndarray | None] = {
            direction: (
                outboxes[nbr][OPPOSITE[direction]] if nbr is not None else None
            )
            for direction, nbr in neighbors.items()
        }
        self.board = board[box.x0:box.x1, box.y0:box.y1, :]
        self.jx: np.ndarray | None = None

    def stage(self) -> None:
        self.fields.publish(self.fields.y, self.outbox)

    def init(self) -> float | None:
        f = self.fields
        f.fill(f.y, self.inboxes)
        jx = f.apply()
        np.subtract(f.b, jx, out=f.r, casting="unsafe")
        if self.mg:
            # The V-cycle is a host-assisted program construct: push
            # the residual block to the board and wait for the sweep's
            # z (``mg_init`` completes the phase).
            self.board[...] = f.r
            return None
        if self.jacobi:
            np.multiply(f.r, f.inv_diag, out=f.z, casting="unsafe")
            f.p[...] = f.z
            local = f.dot(f.r, f.z)
        else:
            f.p[...] = f.r
            local = f.dot(f.r, f.r)
        # p is NOT published here: shards later in the loop still fill
        # their y halos from these same single-buffered mailbox planes
        # — the sweep runs ``publish`` after every shard's init.
        return local

    def mg_init(self) -> float:
        f = self.fields
        f.z[...] = self.board
        f.p[...] = f.z
        return f.dot(f.r, f.z)

    def publish(self) -> None:
        self.fields.publish(self.fields.p, self.outbox)

    def body(self) -> float:
        f = self.fields
        f.fill(f.p, self.inboxes)
        self.jx = f.apply()
        return f.dot(f.p, self.jx)

    def update(self, alpha: float) -> float | None:
        # axpys through the fields' scratch (f._diff is only live
        # inside apply) — `alpha * p` lands in the same dtype with the
        # same rounding, minus the temporary.
        f = self.fields
        np.multiply(f.p, alpha, out=f._diff, casting="unsafe")
        f.y += f._diff
        np.multiply(self.jx, -alpha, out=f._diff, casting="unsafe")
        f.r += f._diff
        if self.mg:
            self.board[...] = f.r
            return None
        if self.jacobi:
            np.multiply(f.r, f.inv_diag, out=f.z, casting="unsafe")
            return f.dot(f.r, f.z)
        return f.dot(f.r, f.r)

    def mg_update(self) -> float:
        f = self.fields
        f.z[...] = self.board
        return f.dot(f.r, f.z)

    def direction(self, beta: float) -> None:
        f = self.fields
        np.multiply(f.p, beta, out=f.p, casting="unsafe")
        f.p += f.z if (self.jacobi or self.mg) else f.r
        f.publish(f.p, self.outbox)

    def gather(self) -> None:
        self.board[...] = self.fields.y


__all__ = ["ShardWorker"]
