"""Exception hierarchy for the OZZ reproduction.

Two families matter:

* :class:`ReproError` — programming errors in code *using* the library
  (malformed KIR, bad configuration, ...).  These indicate a bug in the
  caller and should never be caught by the fuzzing harness.

* :class:`KernelCrash` — the simulated kernel hit a bug oracle (KASAN,
  NULL dereference, lockdep, assertion).  These are the *signal* the
  fuzzer is hunting for: the MTI executor catches them and turns them
  into crash reports.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for errors in library usage (not simulated-kernel bugs)."""


class KirError(ReproError):
    """Malformed KIR: bad operands, unresolved labels, unknown functions."""


class LinkError(KirError):
    """Program linking failed (duplicate function names, missing callees)."""


class ConfigError(ReproError):
    """Invalid :class:`repro.config.KernelConfig` or fuzzer configuration."""


class SyzlangError(ReproError):
    """Syntax or semantic error in a mini-Syzlang description."""


class KernelCrash(Exception):
    """The simulated kernel malfunctioned; carries a structured report.

    Raised from inside the interpreter / helpers when a bug oracle fires.
    ``report`` is a :class:`repro.oracles.report.CrashReport`.
    """

    def __init__(self, report) -> None:
        super().__init__(report.title)
        self.report = report


class ExecutionLimitExceeded(ReproError):
    """A thread executed more instructions than its fuel budget.

    Used to bound runaway loops in simulated kernel code; distinct from a
    kernel crash because it normally indicates a harness/KIR bug (or a
    spinlock that can never be released under the chosen schedule).
    """


def check_version(what: str, found, expected: int, error: type) -> None:
    """Raise ``error`` unless a payload's schema ``found`` is ``expected``.

    Every versioned artifact reader (checkpoints, campaign results, lint
    reports) reads exactly one schema version and rejects the rest with
    this one message, naming the version found and the one this build
    reads — the wording :class:`~repro.trace.replayer.ArtifactError`
    uses for crash artifacts.
    """
    if found != expected:
        raise error(
            f"unsupported {what} version {found!r} "
            f"(this build reads version {expected})"
        )
