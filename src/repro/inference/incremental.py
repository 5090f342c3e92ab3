"""The installed inference session: per-cycle solve counters.

:func:`~repro.pgo.driver.run_pgo` installs one :class:`InferenceSession`
per cycle (unless an enclosing caller already installed one), and every
module-level inference pass adds the functions it solved to
:attr:`InferenceSession.solved`.  The module-level :func:`install`/
:func:`uninstall`/:func:`current` mirror the ``telemetry``/``obs`` session
pattern: nothing installed means nothing is counted.
"""

from __future__ import annotations

from typing import Optional


class InferenceSession:
    """Solve counters of one installed inference session."""

    def __init__(self) -> None:
        #: Per-function systems solved while this session was installed.
        self.solved = 0
        #: Solves skipped by reusing an earlier solution.  Always 0: every
        #: function is solved afresh; the counter stays for readers that
        #: report a reuse ratio.
        self.reused = 0

    def __repr__(self) -> str:
        return f"<InferenceSession solved={self.solved}>"


#: The installed session, or None (nothing is counted — the default).
_active: Optional[InferenceSession] = None


def install(session: Optional[InferenceSession] = None) -> InferenceSession:
    """Install ``session`` (or a fresh one) process-wide."""
    global _active
    _active = session if session is not None else InferenceSession()
    return _active


def uninstall() -> None:
    global _active
    _active = None


def current() -> Optional[InferenceSession]:
    return _active
