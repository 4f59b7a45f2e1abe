"""Command-line front end.

Subcommands:

  simulate   seeded or sequential simulated run, checked for atomicity
  replay     replay a scripted schedule file and check the history
  check      check a previously dumped history file
  bench      failure-free message/exchange grid against the closed forms
  serve      run one live TCP server daemon; --listen takes a host:port
             as a membership entry does
  client     run operations against live servers

Exit codes are script-friendly: 0 success/atomic, 2 non-atomic or a
failed benchmark, 3 liveness failure (stuck execution, unreachable
quorum), 4 unusable configuration or input, a usage error argparse
finds, or a port serve cannot bind.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional

from . import __version__
from .core import (
    Config,
    MODE_SWMR,
    ModeMismatch,
    OhramError,
    QuorumUnreachable,
    ScheduleUnresolvable,
    StuckExecution,
    history_from_json,
    history_to_json,
    parse_pid,
    ROLE_READER,
    ROLE_WRITER,
)
from .protocols import PROTOCOL_NAMES, get_protocol

# simnet, checker and the runner are imported where they are used: serve
# compiles neither simnet nor checker, neither check nor client compiles
# simnet, and a simulated run loads no socket
if TYPE_CHECKING:
    from .checker import Verdict
    from .simnet import RunResult

EXIT_OK = 0
EXIT_NON_ATOMIC = 2
EXIT_LIVENESS = 3
EXIT_CONFIG = 4


def _config_from_args(args) -> Config:
    return Config(n_servers=args.servers, n_readers=args.readers,
                  n_writers=args.writers, f=args.f,
                  mode=get_protocol(args.protocol).mode)


def _print_history(result: RunResult) -> None:
    for rec in result.history:
        resp = "pending" if rec.responded is None else str(rec.responded)
        print(f"  {rec.op}  {rec.kind:5s}  invoked={rec.invoked} "
              f"responded={resp}  tag={rec.tag}  value={rec.value!r}")


def _print_metrics(result: RunResult) -> None:
    for op, m in result.metrics_json():
        kinds = ", ".join(m["exchange_kinds"])
        print(f"  {op}  {m['kind']:5s}  messages={m['messages']} "
              f"exchanges={m['exchanges']} ({kinds})")


def _report(result: RunResult, dump_path: Optional[str]) -> int:
    from .checker import judge
    print("history:")
    _print_history(result)
    print("metrics:")
    _print_metrics(result)
    if result.crashed:
        print("crashed:", ", ".join(str(p) for p in result.crashed))
    if dump_path:
        with open(dump_path, "w", encoding="utf-8") as fh:
            fh.write(result.dumps() + "\n")
        print(f"wrote {dump_path}")
    if (verdict := judge(result)).method == "invariant":
        for line in result.invariant_failures:
            print("INVARIANT FAILURE:", line)
        return EXIT_NON_ATOMIC
    return _verdict_exit(verdict)


def _verdict_exit(verdict: Verdict) -> int:
    if verdict.atomic:
        print(f"ATOMIC ({verdict.method})")
        return EXIT_OK
    pair = ""
    if verdict.witness:
        pair = " pair: " + " -> ".join(str(o) for o in verdict.witness)
    print(f"NON-ATOMIC ({verdict.method}): {verdict.reason}{pair}")
    return EXIT_NON_ATOMIC


# -- simulate --

def _names(flag: str, spec: str) -> list[str]:
    """The non-empty comma-separated names of spec; ValueError naming the
    flag if there are none, as a typo then would run nothing."""
    names = [t.strip() for t in spec.split(",") if t.strip()]
    if not names:
        raise ValueError(f"{flag} names nothing: {spec!r}")
    return names


def _parse_ops(spec: str) -> list[tuple]:
    """"w1,r1,w1=A" -> [(w1, write, auto), (r1, read), (w1, write, "A")]"""
    ops = []
    for i, token in enumerate(_names("--ops", spec)):
        pid_text, _, label = token.partition("=")
        pid = parse_pid(pid_text)
        if pid.role == ROLE_WRITER:
            ops.append((pid, "write", label or chr(ord("A") + i % 26)))
        elif pid.role == ROLE_READER:
            if label:
                raise ValueError(f"read op {token!r} cannot carry a label")
            ops.append((pid, "read", None))
        else:
            raise ValueError(f"{pid} is not a client")
    return ops


def _parse_crash_plan(plan: Optional[str]):
    """Either a count ("2") or explicit victims ("s2,s3")."""
    if plan is None:
        return None, None
    if plan.isdigit():
        return int(plan), None
    return None, [parse_pid(t) for t in _names("--crash-plan", plan)]


def cmd_simulate(args) -> int:
    from .simnet import SimNet, simulate
    config = _config_from_args(args)
    max_crashes, victims = _parse_crash_plan(args.crash_plan)
    if args.ops is not None:
        if args.crash_plan is not None:
            raise ScheduleUnresolvable(
                "--crash-plan applies to seeded runs, not --ops")
        if args.seed is not None:
            raise ScheduleUnresolvable(
                "--seed applies to seeded runs, not --ops")
        net = SimNet(args.protocol, config, x=args.x)
        result = net.run_directives([
            d for pid, kind, label in _parse_ops(args.ops)
            for d in ({"invoke": {"client": str(pid), "kind": kind,
                                  "label": label}}, {"drain": True})])
    else:
        result = simulate(args.protocol, config, args.seed or 0,
                          max_ops=args.max_ops, max_crashes=max_crashes,
                          victims=victims, x=args.x)
    print(f"protocol={result.protocol} seed={result.seed} "
          f"events={result.events}")
    return _report(result, args.out)


def cmd_replay(args) -> int:
    from .simnet import replay_file
    result = replay_file(args.schedule)
    print(f"protocol={result.protocol} events={result.events}")
    return _report(result, args.out)


def cmd_check(args) -> int:
    from .checker import check_history
    with open(args.history, "r", encoding="utf-8") as fh:
        history = history_from_json(json.load(fh))
    return _verdict_exit(check_history(history))


# -- bench --

def cmd_bench(args) -> int:
    from .simnet import SimNet
    try:
        sizes = [int(s) for s in args.servers.split(",")]
    except ValueError as e:
        raise ValueError(f"--servers takes a comma list of server counts, "
                         f"got {args.servers!r}: {e}") from None
    names = _names("--protocols", args.protocols)
    failures = 0
    for name in names:
        bundle = get_protocol(name)
        n_writers = 1 if bundle.mode == MODE_SWMR else 2
        for n in sizes:
            config = Config(n_servers=n, n_readers=1, n_writers=n_writers,
                            f=(n - 1) // 2, mode=bundle.mode)
            net = SimNet(name, config, seed=0)
            net.load_program(config.writers()[0], [("write", "A")])
            net.load_program(config.readers()[0], [("read", None)])
            net.run_seeded()
            result = net.result()
            got = {m.kind: m for m in result.metrics.values()}
            checks = [
                ("write msgs", got["write"].messages, bundle.write_messages(n)),
                ("write exch", got["write"].exchanges, len(bundle.write_chain)),
                ("read msgs", got["read"].messages, bundle.read_messages(n)),
                ("read exch", got["read"].exchanges, len(bundle.read_chain)),
            ]
            bad = [f"{label} {have} != {want}"
                   for label, have, want in checks if have != want]
            if bad:
                failures += 1
                print(f"FAIL  {name:9s} n={n}: " + "; ".join(bad))
            else:
                print(f"PASS  {name:9s} n={n}: "
                      f"write {got['write'].exchanges} exchanges "
                      f"/ {got['write'].messages} msgs, "
                      f"read {got['read'].exchanges} exchanges "
                      f"/ {got['read'].messages} msgs")
    return EXIT_NON_ATOMIC if failures else EXIT_OK


# -- live network --

def _load_membership(path: str):
    from .runner import membership_from_json
    with open(path, "r", encoding="utf-8") as fh:
        return membership_from_json(json.load(fh))


def cmd_serve(args) -> int:
    import signal
    import threading
    from .runner import ServerDaemon, check_membership, parse_address
    config = _config_from_args(args)
    pid = parse_pid(args.pid)
    # no --listen: an ephemeral port on ServerDaemon's default host
    host, port = parse_address("--listen", args.listen or ":0")
    # refuses a bad protocol, config or pid before the file is read
    daemon = ServerDaemon(pid, config, args.protocol, host=host, port=port)
    try:
        membership = _load_membership(args.membership)
        check_membership(pid, config, membership)
        # SIGTERM, kill's default, stops the daemon as SIGINT does
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        daemon.start(membership)
        # a signal sent once this line is read must land inside the try
        print(f"{pid} listening on {daemon.address[0]}:{daemon.port}",
              flush=True)
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
    return EXIT_OK


def _parse_client_ops(spec: str) -> list[tuple]:
    """"w:A,r,w" -> [("write", "A"), ("read", None), ("write", auto)]"""
    ops = []
    for i, token in enumerate(_names("--ops", spec)):
        head, _, label = token.partition(":")
        if head == "w":
            ops.append(("write", label or chr(ord("A") + i % 26)))
        elif head == "r":
            ops.append(("read", None))
        else:
            raise ValueError(f"bad op token {token!r}, want w[:LABEL] or r")
    return ops


def cmd_client(args) -> int:
    from .runner import Client
    config = _config_from_args(args)
    pid = parse_pid(args.pid)
    if pid.role not in (ROLE_READER, ROLE_WRITER):
        raise ModeMismatch(f"{pid} is not a client")
    ops = _parse_client_ops(args.ops)
    # a writer machine only writes and a reader machine only reads
    can = "write" if pid.role == ROLE_WRITER else "read"
    if any(kind != can for kind, _ in ops):
        raise ModeMismatch(f"{pid} can only {can}, got --ops {args.ops!r}")
    client = Client(pid, config, args.protocol,
                    _load_membership(args.membership),
                    retry_interval=args.retry_interval,
                    retry_budget=args.retry_budget)
    try:
        for kind, label in ops:
            if kind == "write":
                rec = client.write(label)
            else:
                rec = client.read()
            print(f"{rec.op}  {kind}  tag={rec.tag}  value={rec.value!r}")
    finally:
        client.close()
        if args.out:  # an op given up is in the dump as pending
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"history": history_to_json(client.history)}, fh)
            print(f"wrote {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, whose usage
    errors exit EXIT_CONFIG: argparse's own 2 is EXIT_NON_ATOMIC."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ohram",
        description="Quorum register emulations: simulate, check, serve.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--protocol", default="ohsam", choices=PROTOCOL_NAMES)
        p.add_argument("--servers", type=int, default=3)
        p.add_argument("--f", type=int, default=1)
        p.add_argument("--readers", type=int, default=1)
        p.add_argument("--writers", type=int, default=1)

    p = sub.add_parser("simulate", help="run one simulated execution")
    add_config_flags(p)
    p.add_argument("--seed", type=int, default=None,
                   help="seed of a seeded run (default 0); refused with --ops")
    p.add_argument("--ops", help='sequential ops, e.g. "w1,r1,w1=A"')
    p.add_argument("--max-ops", type=int, default=10)
    p.add_argument("--crash-plan", default=None,
                   help='crash count ("2") or victims ("s2,s3") '
                        "for seeded runs")
    p.add_argument("--x", type=int, default=None,
                   help="decision threshold of the unsound naive3x "
                        "protocol, 1..n; refused for every other protocol")
    p.add_argument("--out", help="dump the full run result to this file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="replay a scripted schedule file")
    p.add_argument("schedule")
    p.add_argument("--out", help="dump the full run result to this file")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("check", help="check a dumped history file")
    p.add_argument("history")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="verify the complexity grid")
    p.add_argument("--servers", default="3,5,7")
    p.add_argument("--protocols",
                   default="ohsam,ohmam,abd-swmr,abd-mwmr",
                   help="comma list; naive3x joins only when named")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve", help="run one live server daemon")
    add_config_flags(p)
    p.add_argument("--pid", required=True)
    p.add_argument("--membership", required=True,
                   help='JSON file {"s1": "host:port", ...}')
    p.add_argument("--listen", help="host:port to bind (port 0 = ephemeral)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="run live operations")
    add_config_flags(p)
    p.add_argument("--pid", required=True)
    p.add_argument("--membership", required=True)
    p.add_argument("--ops", required=True, help='e.g. "w:A,r"')
    p.add_argument("--retry-interval", type=float, default=0.05)
    p.add_argument("--retry-budget", type=int, default=100)
    p.add_argument("--out", help="dump the client history to this file")
    p.set_defaults(func=cmd_client)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StuckExecution as e:
        print(f"STUCK: {e}", file=sys.stderr)
        return EXIT_LIVENESS
    except QuorumUnreachable as e:
        print(f"NO QUORUM: {e}", file=sys.stderr)
        return EXIT_LIVENESS
    except (OhramError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
