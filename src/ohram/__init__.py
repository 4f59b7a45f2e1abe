"""Quorum-replicated read/write register emulations, simulated and live.

The package bundles three protocol families (a single-writer emulation
with three-exchange reads, its multi-writer extension, and the classic
two-phase baseline), one deliberately unsound demonstration protocol, a
deterministic discrete-event simulator with crash injection, atomicity
checkers, and a small TCP runner.

The simulator, the checkers and the TCP runner load on first use, so a
daemon never compiles simnet or checker and a simulated run never imports
the runner's sockets and threads. Each of the three modules, and every
public name _LAZY lists for it, resolves through the module's __getattr__.
The machine modules (ohsam, ohmam, abd, naive3x) load when get_protocol
first builds a bundle that pairs them, so importing the package compiles
none, and a process compiles only the machines of the protocols it runs.
"""

from .core import (
    BOTTOM,
    BindFailure,
    Config,
    FaultBudgetExceeded,
    HistoryTooLarge,
    InvalidFaultBound,
    Message,
    MODE_MWMR,
    MODE_SWMR,
    ModeMismatch,
    NotWellFormed,
    OhramError,
    OpId,
    OpRecord,
    ProcessId,
    QuorumUnreachable,
    ScheduleUnresolvable,
    StuckExecution,
    Tag,
    UntaggedHistory,
    history_from_json,
    history_to_json,
    parse_pid,
    quorum_size,
    validate_config,
)
from .protocols import PROTOCOL_NAMES, get_protocol

__version__ = "0.1.0"

# each name that loads on first use -> its module, itself one of the names
_LAZY = {name: module for module, names in (
    ("simnet", ("RunResult", "SimNet", "replay_file", "run_script",
                "simulate")),
    ("checker", ("BRUTE_MAX_OPS", "Verdict", "check_bruteforce",
                 "check_history", "check_witness")),
    ("runner", ("Client", "ServerDaemon", "membership_from_json",
                "merge_histories")),
) for name in (module, *names)}


def __getattr__(name: str):
    # import_module, not `from . import simnet`, which looks the name up
    # here and comes back. Stored, the name is not looked up here again
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    found = import_module("." + module, __name__)
    value = found if name == module else getattr(found, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
