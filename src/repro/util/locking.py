"""Advisory cross-process file locking for shared on-disk state.

Several gateway processes can point at one
:class:`~repro.session.ResultStore` directory; each writer must then
replay the others' journal lines and append its own *under a lock*, or
a torn tail could be truncated under a live writer and compaction could
drop a record appended meanwhile.  :class:`FileLock` is the primitive:
an advisory ``flock`` on a dedicated lock file (never on the data file
itself — compaction replaces the journal with a new file, which would
orphan the lock).

POSIX ``flock`` serializes across processes *and*, on the same open
file description, across threads; each :meth:`acquire` opens its own
descriptor, so one ``FileLock`` object is safe to share between
threads.  Where :mod:`fcntl` does not exist (non-POSIX), locking
degrades to a no-op — single-process use stays correct because the
store also replays the journal before every append.

Usage::

    lock = FileLock(store_root / "manifest.lock")
    with lock:
        replay_new_lines()
        append(pending)
"""

from __future__ import annotations

import os
from pathlib import Path
from types import TracebackType

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


class FileLock:
    """A reentrant advisory lock on a dedicated lock file.

    Reentrancy is per-object (a depth counter), which lets store
    methods that already hold the lock call helpers that take it too.
    The lock file itself is left in place — unlinking a lock file that
    another process may be blocking on reintroduces the race the lock
    exists to close.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fd: int | None = None
        self._depth = 0

    @property
    def held(self) -> bool:
        return self._depth > 0

    def acquire(self) -> None:
        if self._depth > 0:
            self._depth += 1
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        self._depth = 1

    def release(self) -> None:
        if self._depth == 0:
            raise RuntimeError(f"release of unheld lock {self.path}")
        self._depth -= 1
        if self._depth > 0:
            return
        assert self._fd is not None
        fd, self._fd = self._fd, None
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()


__all__ = ["FileLock"]
