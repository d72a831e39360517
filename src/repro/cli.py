"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``toss``      generate shared coin bits or k-ary coins from a bootstrapped
              source and print them;
``costs``     print the paper's cost formulas evaluated at given parameters
              (the lemma-by-lemma cheat sheet);
``vss``       run Protocol VSS once, honest or cheating, and report the
              unanimous verdict plus measured costs;
``beacon``    run a randomness beacon for a number of ticks;
``trace``     run one instrumented Coin-Gen, print the per-phase breakdown
              and the lemma-conformance audit;
``metrics``   run one instrumented Coin-Gen and print the Prometheus text
              exposition;
``replay``    re-drive a recorded flight log's decode paths offline, or
              diff two logs (``--diff``) for the first divergence, or
              rebuild the happens-before DAG (``--causal``);
``forensics`` analyze a flight log for Byzantine behaviour and print the
              per-player accusation report;
``health``    run a living coin source under the health monitor and gate
              the exit code on operational thresholds;
``critpath``  run one instrumented Coin-Gen, build its happens-before
              DAG, and print per-run critical paths, per-phase latency
              attribution, and per-coin exposure latencies under a cost
              model; ``--what-if player=I,scale=S`` re-prices the graph
              with a straggler, ``--export`` writes the JSON analysis,
              ``--chrome`` writes a Perfetto trace with causal flow
              arrows, ``--assert-depth`` gates the exit code on the DAG
              depth matching the ``analysis.rounds`` prediction;
``waits``     run async coin exposures and read their liveness off the
              flight log: per-guard quorum-latency table (armed/fired
              logical times, pivotal sender), the stalls with their
              crash-vs-withholding classification (``--watchdog TICKS``
              gates the exit code on zero stalls), and ``--audit`` the
              liveness conformance audit;
``campaign``  sweep the joint scenario space (adversary × faults ×
              scheduler × runtime) under the composed violation oracle:
              ``run`` executes a space or ``--budget`` sampled slice
              with coverage/triage reports and optional ``--shrink``
              repro artifacts, ``report`` re-reads a campaign ledger,
              ``shrink`` minimizes a recorded violation, ``replay``
              re-runs a repro artifact and verifies it still trips.

Exit codes
----------
Every gate-bearing subcommand follows one convention:

* ``0`` — clean: the command ran and every requested gate passed;
* ``1`` — gate tripped: the run worked but a check failed (audit
  deviation, unanimity break, stall, regression, campaign violation,
  coverage below ``--min-coverage``, artifact no longer reproducing);
* ``2`` — usage or incompatible input: bad flag syntax, an unreadable /
  unrecognized input file, or options that cannot be combined.
  (argparse's own errors exit 2 as well.)

``toss``, ``trace``, and ``critpath`` accept ``--runtime lockstep|async``:
under ``async`` each coin is exposed on an event-driven
:class:`~repro.net.async_runtime.AsyncRuntime` where an adversarial
(seed-deterministic) scheduler delivers one message at a time — sweep
``--sched-seed`` to explore delivery orders, ``--crash PLAYERS`` to
crash players from the start.  ``trace --runtime async --audit`` gates
on unanimity plus the structure of the recorded happens-before graph
(one edge per delivered message, depth within the run's deliveries);
``critpath --runtime async`` prices that DAG (logical time = delivery
count).  Every causal graph the CLI shows is built from a flight log,
recorded in memory when no ``--flight-log`` asks for the file.

``toss``, ``trace``, and ``metrics`` accept ``--export chrome|jsonl|prom``
(+ ``--export-out PATH``) to write the recorded spans as a Chrome
trace-event JSON (open with Perfetto), newline-delimited JSON, or a
Prometheus exposition (``waits``: ``prom`` only); the default export
path derives from the subcommand name (``toss.json``, ``trace.jsonl``,
``metrics.prom``, ...), so concurrent exports from different commands
never collide.  ``toss``, ``trace`` and ``critpath`` also accept
``--flight-log PATH`` to record the delivered message stream for later
``replay``/``forensics``.

Off the coin path (docs/CENSUS.md, class ii); run by every CI smoke step
(`.github/workflows/ci.yml`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import complexity as cx
from repro.core import BootstrapCoinSource
from repro.fields import GF2k
from repro.net import PermutedDeliveryScheduler, RandomOrderScheduler
from repro.obs import SpanRecorder, to_chrome_trace, to_jsonl, to_prometheus
from repro.protocols.context import ProtocolContext
from repro.protocols.vss import run_vss


def _usage_error(message: str) -> "SystemExit":
    """Exit 2 (usage / incompatible input), per the CLI convention.

    ``raise SystemExit(str)`` would exit 1 — the *gate tripped* code —
    which misfiles bad flags as failed checks; every usage-error site
    funnels through here instead.
    """
    print(message, file=sys.stderr)
    return SystemExit(2)


def _load_flight_log(path: str):
    """A flight log off disk, or exit 2 when unreadable/unparseable."""
    from repro.obs.flight import FlightLog

    try:
        return FlightLog.load(path)
    except OSError as exc:
        raise _usage_error(f"{path}: cannot read flight log ({exc})")
    except ValueError as exc:
        raise _usage_error(f"{path}: not a flight log ({exc})")


def _add_system_arguments(parser: argparse.ArgumentParser, default_n: int = 7,
                          default_t: int = 1) -> None:
    parser.add_argument("--n", type=int, default=default_n, help="players")
    parser.add_argument("--t", type=int, default=default_t, help="faults tolerated")
    parser.add_argument("--k", type=int, default=32, help="security parameter (field GF(2^k))")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--scheduler",
                        choices=("lockstep", "permuted", "random"),
                        default="lockstep",
                        help="message delivery policy (permuted = seeded "
                             "random within-round arrival order, random = "
                             "seeded adversarial order, one message at a "
                             "time under --runtime async)")
    parser.add_argument("--sched-seed", type=int, default=0,
                        help="seed for the permuted/random scheduler "
                             "(sweep it to explore delivery orders)")
    parser.add_argument("--runtime", choices=("lockstep", "async"),
                        default="lockstep",
                        help="execution model: synchronous rounds, or "
                             "event-driven message-at-a-time delivery "
                             "(logical time = delivery count)")
    parser.add_argument("--crash", default=None, metavar="PLAYERS",
                        help="comma-separated player ids crashed from the "
                             "start (async runtime only)")
    parser.add_argument("--backend", choices=("auto", "python", "numpy"),
                        default="auto",
                        help="field bulk-kernel backend (auto = numpy when "
                             "installed, else pure python)")


def _add_export_arguments(parser: argparse.ArgumentParser,
                          formats=("chrome", "jsonl", "prom")) -> None:
    parser.add_argument("--export", choices=formats, default=None,
                        help="write the recording: chrome = trace-event JSON "
                             "(Perfetto), jsonl = JSONL, prom = Prometheus "
                             "text")
    parser.add_argument("--export-out", default=None, metavar="PATH",
                        help="export file (defaults to <command>.<ext>: "
                             "json / jsonl / prom)")


def _add_flight_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--flight-log", default=None, metavar="PATH",
                        help="record the delivered message stream to a "
                             "flight log (see 'repro replay'/'forensics')")


#: file extension per export format; the default export path is
#: ``<subcommand>.<ext>`` so e.g. ``toss`` and ``trace`` never clobber
#: each other's exports when run from the same directory
_EXPORT_EXTENSIONS = {"chrome": "json", "jsonl": "jsonl", "prom": "prom"}


def _run_manifest(args: argparse.Namespace, ctx: ProtocolContext,
                  protocol: Optional[str] = None):
    """The :class:`~repro.obs.manifest.RunManifest` these flags describe."""
    from repro.obs.manifest import RunManifest

    scheduler = getattr(args, "scheduler", None)
    if scheduler == "lockstep" and getattr(args, "runtime", None) == "async":
        # what _run_async_coins runs when no policy was asked for
        scheduler = "random"
    return RunManifest.capture(
        field=ctx.field,
        protocol=protocol or getattr(args, "command", None),
        n=ctx.n, t=ctx.t,
        M=getattr(args, "M", None),
        seed=getattr(args, "seed", None),
        sched_seed=getattr(args, "sched_seed", None),
        scheduler=scheduler,
        runtime=getattr(args, "runtime", None),
    )


def _make_context(args: argparse.Namespace,
                  record: bool = False) -> ProtocolContext:
    """The ProtocolContext the chosen CLI flags describe.

    Attaches a live :class:`SpanRecorder` when the command was invoked
    with ``--export`` (observability stays zero-cost otherwise), or
    when the command's own report is read off the spans (``record``).
    """
    scheduler = None
    if args.scheduler == "permuted":
        scheduler = PermutedDeliveryScheduler(seed=args.sched_seed)
    elif args.scheduler == "random":
        scheduler = RandomOrderScheduler(seed=args.sched_seed)
    record = record or getattr(args, "export", None) is not None
    kwargs = {"recorder": SpanRecorder()} if record else {}
    field = GF2k(args.k, backend=getattr(args, "backend", "auto"))
    return ProtocolContext.create(
        field, args.n, args.t, seed=args.seed, scheduler=scheduler,
        **kwargs,
    )


def _write_export(args: argparse.Namespace, ctx: ProtocolContext,
                  health=None) -> None:
    """Write the recorder's spans in the format ``--export`` selected."""
    if getattr(args, "export", None) is None:
        return
    recorder = ctx.recorder
    manifest = _run_manifest(args, ctx)
    if args.export == "chrome":
        content = to_chrome_trace(recorder, manifest=manifest)
    elif args.export == "jsonl":
        content = to_jsonl(recorder, manifest=manifest)
    else:
        content = to_prometheus(metrics=ctx.metrics, recorder=recorder,
                                health=health)
    _save_export(args, content)


def _save_export(args: argparse.Namespace, content: str) -> None:
    """``content`` to ``--export-out`` (default ``<command>.<ext>``)."""
    out = args.export_out or (
        f"{args.command}.{_EXPORT_EXTENSIONS[args.export]}"
    )
    with open(out, "w") as handle:
        handle.write(content)
    print(f"wrote {args.export} export to {out}", file=sys.stderr)


def _attach_flight_recorder(args: argparse.Namespace, ctx: ProtocolContext,
                            always: bool = False):
    """A FlightRecorder attached to the context when ``--flight-log`` was
    given — or ``always``, for the commands whose report is read off the
    log (the causal graph is built from it)."""
    if getattr(args, "flight_log", None) is None and not always:
        return None
    from repro.obs.flight import FlightRecorder

    recorder = FlightRecorder(n=ctx.n, t=ctx.t, field=ctx.field,
                              seed=ctx.seed,
                              manifest=_run_manifest(args, ctx).to_dict())
    return recorder.attach(ctx)


def _write_flight_log(args: argparse.Namespace, flight) -> None:
    if flight is None or args.flight_log is None:
        return
    flight.dump(args.flight_log)
    log = flight.log()
    print(f"wrote flight log to {args.flight_log} "
          f"({len(log.rounds)} rounds, {len(log.faults)} faults)",
          file=sys.stderr)


def _player_ids(text: Optional[str], flag: str, n: Optional[int] = None) -> set:
    """A comma-separated player-id flag value as a set (empty for None
    or blank); anything else — or an id outside ``1..n`` — is a usage
    error naming ``flag``."""
    if text is None or not text.strip():
        return set()
    try:
        ids = {int(pid) for pid in text.split(",")}
    except ValueError:
        raise _usage_error(f"bad {flag} value {text!r} "
                           f"(expected comma-separated player ids)")
    if n is not None and not all(1 <= pid <= n for pid in ids):
        raise _usage_error(f"bad {flag} value {text!r} "
                           f"(player ids run from 1 to {n})")
    return ids


def _crashed_players(args: argparse.Namespace) -> set:
    """The ``--crash`` flag parsed into a set of player ids."""
    return _player_ids(getattr(args, "crash", None), "--crash", args.n)


def _number(kind, value: str, flag: str):
    """``kind(value)`` for one ``key=value`` flag component, or exit 2."""
    try:
        return kind(value)
    except ValueError:
        raise _usage_error(f"bad {flag} value {value!r} "
                           f"(expected {kind.__name__})")


def _run_async_coins(args: argparse.Namespace, ctx, count: int):
    """Run ``count`` independent async coin exposures under ``ctx``.

    Coin ``i`` runs under ``RandomOrderScheduler(sched_seed + i)`` — so
    sweeping ``--sched-seed`` sweeps whole families of adversarial
    delivery orders — unless a non-default ``--scheduler`` asked for a
    specific policy.  Returns ``(values, runtimes, breaks, stuck)`` where
    ``breaks`` lists ``(coin_index, distinct_values)`` unanimity
    violations (which ≤ t crashes can never cause) and ``stuck`` is the
    :class:`~repro.net.runtime.RuntimeExhausted` of a coin that never
    finished (more than t crashes), already printed on stderr — the
    coins after it are not run — or None.
    """
    from repro.net.runtime import RuntimeExhausted
    from repro.protocols.async_coin import run_async_coin

    crashed = _crashed_players(args)
    values, runtimes, breaks = [], [], []
    for index in range(count):
        scheduler = (
            ctx.scheduler if args.scheduler != "lockstep"
            else RandomOrderScheduler(seed=args.sched_seed + index)
        )
        try:
            outputs, _, runtime = run_async_coin(
                ctx, coin_id=f"async-{index}", scheduler=scheduler,
                crashed=crashed,
            )
        except RuntimeExhausted as stuck:
            print(stuck, file=sys.stderr)
            return values, runtimes, breaks, stuck
        distinct = {ctx.field.to_int(v) for v in outputs.values()}
        if len(distinct) != 1:
            breaks.append((index, sorted(distinct)))
        values.append(next(iter(outputs.values())))
        runtimes.append(runtime)
    return values, runtimes, breaks, None


def _print_coins(args: argparse.Namespace, field, coins) -> None:
    """``coins`` as hex field elements (``--elements``) or rows of bits."""
    if args.elements:
        width = (args.k + 3) // 4
        lines = [f"0x{field.to_int(v):0{width}x}" for v in coins]
    else:
        lines = [
            "".join(map(str, coins[start : start + 64]))
            for start in range(0, len(coins), 64)
        ]
    for line in lines:
        print(line)


def _cmd_toss_async(args: argparse.Namespace, ctx, flight) -> int:
    """``toss --runtime async``: one event-driven exposure per coin.

    A coin that never finishes (more than t crashes) is reported on
    stderr with the players it left stuck; the flight log is written
    anyway and ``--watchdog`` prints the stalls read off it.
    """
    from repro.protocols.async_coin import async_coin_bit

    root = ctx.recorder.begin("toss", "root")
    values, runtimes, breaks, stuck = _run_async_coins(args, ctx, args.count)
    ctx.recorder.end(root)
    for index, distinct in breaks:
        print(f"UNANIMITY BREAK: coin {index} exposed {len(distinct)} "
              f"distinct values {distinct}", file=sys.stderr)
    if breaks:
        return 1
    if stuck is not None:
        _write_flight_log(args, flight)
        if args.watchdog is not None:
            _report_stalls(flight.log(), args.watchdog)
        return 1
    _print_coins(
        args, ctx.field,
        values if args.elements
        else [async_coin_bit(v, ctx.field) for v in values],
    )
    if args.stats:
        crashed = _crashed_players(args)
        deliveries = sum(r.delivery_count for r in runtimes)
        makespan = sum(r.logical_time for r in runtimes)
        print()
        print(f"{'coins exposed':42s} {len(values)}")
        print(f"{'crashed players':42s} "
              f"{','.join(map(str, sorted(crashed))) or 'none'}")
        print(f"{'total deliveries':42s} {deliveries:,}")
        print(f"{'logical-time makespan (sum)':42s} {makespan:,}")
        print(f"{'mean logical time per coin':42s} "
              f"{makespan / max(len(values), 1):,.1f}")
    _write_export(args, ctx)
    _write_flight_log(args, flight)
    if args.watchdog is not None and _report_stalls(flight.log(),
                                                    args.watchdog):
        return 1
    return 0


def _stall_summary(found, threshold: int) -> str:
    crash = sum(1 for s in found if s.classification == "crash")
    return (f"STALL: {len(found)} guard(s) waited past "
            f"{threshold} logical ticks "
            f"({crash} crash-induced, {len(found) - crash} unexplained)")


def _report_stalls(log, threshold: int) -> bool:
    """Print ``log``'s stalls past ``threshold`` on stderr; any found?"""
    from repro.obs.liveness import stall_table, stalls

    found = stalls(log, threshold)
    if found:
        print(_stall_summary(found, threshold), file=sys.stderr)
        print(stall_table(found, threshold), file=sys.stderr)
    return bool(found)


def _cmd_toss(args: argparse.Namespace) -> int:
    ctx = _make_context(args)
    # --watchdog reads its stalls off the log, so it records one
    flight = _attach_flight_recorder(
        args, ctx, always=args.runtime == "async" and args.watchdog is not None
    )
    if args.runtime == "async":
        return _cmd_toss_async(args, ctx, flight)
    root = ctx.recorder.begin("toss", "root")
    source = BootstrapCoinSource(context=ctx, batch_size=args.batch)
    coins = (
        [source.toss_element() for _ in range(args.count)] if args.elements
        else source.tosses(args.count)
    )
    ctx.recorder.end(root)
    _print_coins(args, ctx.field, coins)
    if args.stats:
        print()
        for key, value in source.amortized_cost_summary().items():
            print(f"{key:42s} {value:,.2f}" if isinstance(value, float)
                  else f"{key:42s} {value}")
    _write_export(args, ctx)
    _write_flight_log(args, flight)
    return 0


def _cmd_costs(args: argparse.Namespace) -> int:
    n, t, k, M = args.n, args.t, args.k, args.M
    vss = cx.vss_single(n, k)
    batch = cx.batch_vss(n, k, M)
    bitgen = cx.bit_gen(n, t, k, M)
    print(f"paper cost formulas at n={n}, t={t}, k={k}, M={M}\n")
    print(f"Lemma 2  (VSS)      : {vss.additions:,.0f} additions, "
          f"{vss.interpolations:.0f} interpolations, {vss.messages:.0f} "
          f"messages, {vss.bits:,.0f} bits")
    print(f"Lemma 4  (Batch-VSS): {batch.additions:,.0f} additions, "
          f"{batch.interpolations:.0f} interpolations, {batch.bits:,.0f} bits "
          f"({cx.batch_vss_amortized_additions(k):,.0f} additions/secret)")
    print(f"Lemma 6  (Bit-Gen)  : {bitgen.additions:,.0f} additions, "
          f"{bitgen.bits:,.0f} bits "
          f"({cx.bit_gen_amortized_per_bit(n, k):,.1f} additions/bit)")
    print(f"Thm 2    (Coin-Gen) : {cx.coin_gen_additions(n, k, M):,.0f} "
          f"additions total, {cx.coin_gen_bits(n, t, k, M):,.0f} bits, "
          f"{cx.coin_gen_interpolations_per_player(n)} interpolations/player")
    print(f"Cor 3    (amortized): {cx.coin_gen_amortized_bits_per_bit(n, k, M):,.1f} "
          f"bits/coin-bit, {cx.coin_gen_amortized_ops_per_bit(n, k):,.1f} ops/coin-bit")
    print(f"Lemma 8  (liveness) : {cx.coin_gen_expected_iterations(n, t):.2f} "
          f"expected BA iterations")
    print(f"soundness           : VSS 1/p={cx.vss_soundness_bound(2**k):.2e}, "
          f"batch M/p={cx.batch_vss_soundness_bound(M, 2**k):.2e}, "
          f"unanimity {cx.coin_unanimity_error(M, n, k):.2e}")
    return 0


def _cmd_vss(args: argparse.Namespace) -> int:
    cheat = {args.cheat_player: 0xBAD} if args.cheat else None
    results, metrics = run_vss(_make_context(args), cheat_shares=cheat)
    verdicts = {r.accepted for r in results.values()}
    if len(verdicts) != 1:
        print("ERROR: players disagree", file=sys.stderr)
        return 1
    verdict = verdicts.pop()
    print(f"VSS over GF(2^{args.k}), n={args.n}, t={args.t}, "
          f"dealer {'CHEATING' if args.cheat else 'honest'}")
    print(f"unanimous verdict : {'ACCEPT' if verdict else 'REJECT'}")
    summary = metrics.summary()
    print(f"rounds            : {summary['rounds']}")
    print(f"messages          : {summary['messages']} (paper accounting)")
    print(f"bits              : {summary['bits']}")
    print(f"interpolations    : {summary['max_player_interpolations']} per player")
    return 0


def _cmd_beacon(args: argparse.Namespace) -> int:
    source = BootstrapCoinSource(
        context=_make_context(args), batch_size=args.batch, low_watermark=2
    )
    width = (args.k + 3) // 4
    for tick in range(1, args.ticks + 1):
        value = source.system.field.to_int(source.toss_element())
        print(f"tick {tick:4d}  0x{value:0{width}x}")
    return 0


def _run_instrumented_coin_gen(args: argparse.Namespace,
                               flight_always: bool = False):
    """One Coin-Gen + batch exposure under a live recorder.

    Returns ``(ctx, flight)``; ``flight`` is None unless
    ``--flight-log`` was given or the caller reads the log itself
    (``flight_always``).
    """
    from repro.protocols.coin_gen import run_coin_gen, expose_coin

    # trace/metrics are pointless without a recorder: attach one even
    # when no --export was requested (the terminal report needs it)
    ctx = _make_context(args, record=True)
    flight = _attach_flight_recorder(args, ctx, always=flight_always)
    outputs, _ = run_coin_gen(ctx, M=args.M, seed=args.seed)
    if all(o.success for o in outputs.values()):
        expose_coin(ctx, outputs=outputs, h=0)
    _write_flight_log(args, flight)
    return ctx, flight


def _cmd_trace_async(args: argparse.Namespace) -> int:
    """``trace --runtime async``: logical-time summary + async audit.

    The audit (gated by ``--audit``) checks what lockstep lemma
    conformance cannot cover asynchronously: every coin unanimous, and
    the happens-before graph of the recorded run well-formed against
    what the runtime itself counted — one edge per delivered message,
    and a longest chain of at least one and at most that many messages
    (each delivery is its own logical tick, so a chain cannot outrun
    the deliveries).
    """
    from repro.obs.causality import graph_from_log

    ctx = _make_context(args, record=True)
    flight = _attach_flight_recorder(args, ctx, always=True)
    values, runtimes, breaks, stuck = _run_async_coins(args, ctx, args.M)
    if stuck is not None:
        _write_flight_log(args, flight)
        return 1

    print(f"async trace: n={ctx.n}, t={ctx.t}, k={args.k}, "
          f"coins={args.M}, sched-seed={args.sched_seed}")
    crashed = _crashed_players(args)
    if crashed:
        print(f"crashed players: {','.join(map(str, sorted(crashed)))}")
    print()
    graph = graph_from_log(flight.log())
    print(f"{'coin':<6} {'deliveries':>10} {'logical time':>13} "
          f"{'causal depth':>13}")
    print("-" * 45)
    well_formed = True
    for index, runtime in enumerate(runtimes):
        depth = graph.depth(index + 1)
        print(f"{index:<6} {runtime.delivery_count:>10} "
              f"{runtime.logical_time:>13} {depth:>13}")
        well_formed = well_formed and (
            len(graph.edges_in_run(index + 1)) == runtime.delivery_count
            and 1 <= depth <= runtime.delivery_count
        )

    unanimous = not breaks
    print()
    print(f"unanimity          : {'OK' if unanimous else 'BROKEN'} "
          f"({args.M - len(breaks)}/{args.M} coins)")
    for index, distinct in breaks:
        print(f"  coin {index}: {len(distinct)} distinct values "
              f"{distinct}")
    print(f"edges == deliveries: {'OK' if well_formed else 'DIVERGED'} "
          f"({len(graph.edges)} edges)")

    _write_flight_log(args, flight)
    return _finish_trace(args, ctx, unanimous and well_formed)


def _finish_trace(args: argparse.Namespace, ctx, ok: bool) -> int:
    """Write the span export; ``--audit`` gates the exit code on ``ok``."""
    _write_export(args, ctx)
    return 1 if args.audit and not ok else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.audit import audit_recorder, audit_rounds

    if args.runtime == "async":
        return _cmd_trace_async(args)
    ctx, _ = _run_instrumented_coin_gen(args)
    recorder = ctx.recorder

    print(f"Coin-Gen trace: n={ctx.n}, t={ctx.t}, k={args.k}, M={args.M}")
    print()
    print(f"{'phase':<12} {'rounds':>6} {'messages':>9} {'bits':>9} "
          f"{'wall ms':>9}")
    print("-" * 50)
    for span in recorder.phase_spans():
        print(f"{span.attrs['phase']:<12} {span.attrs['rounds']:>6} "
              f"{span.attrs['messages']:>9} {span.attrs['bits']:>9} "
              f"{span.duration * 1e3:>9.3f}")
    print()
    print(f"span coverage: {recorder.coverage():.1%}")

    reports = audit_recorder(recorder)
    all_ok = True
    for report in reports:
        all_ok = all_ok and report.ok
        print()
        print(f"conformance audit: {report.protocol} {report.params} -> "
              f"{'OK' if report.ok else 'DEVIATION'}"
              + (f" ({report.faults} faults observed)" if report.faults
                 else ""))
        print(report.table())

    round_checks = audit_rounds(recorder)
    if round_checks:
        print()
        print("round conformance (vs analysis.rounds predictions):")
        for check in round_checks:
            all_ok = all_ok and check.ok
            status = "ok" if check.ok else "DEVIATION"
            if not check.ok and check.faults:
                status += f" ({check.faults} faults observed)"
            print(f"  {check.protocol:<10} expected {check.expected:>3} "
                  f"measured {check.measured:>3} ({check.deviation:+d})  "
                  f"{status}")

    return _finish_trace(args, ctx, all_ok)


def _cmd_metrics(args: argparse.Namespace) -> int:
    ctx, _ = _run_instrumented_coin_gen(args)
    print(to_prometheus(metrics=ctx.metrics, recorder=ctx.recorder), end="")
    _write_export(args, ctx)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs.flight import diff, replay

    log = _load_flight_log(args.log)
    if args.diff is not None:
        other = _load_flight_log(args.diff)
        divergence = diff(log, other)
        if divergence is None:
            print("logs are equivalent (no divergent delivery)")
            return 0
        print(f"DIVERGENCE at {divergence}")
        return 1

    if args.causal:
        from repro.obs.causality import graph_from_log
        from repro.obs.critical_path import critical_path

        graph = graph_from_log(log)
        print(f"causal graph: n={graph.n}, runs={len(graph.runs())}, "
              f"edges={len(graph.edges)}")
        for run, depth in sorted(graph.depths().items()):
            print(f"  run {run}: depth {depth} "
                  f"(message-carrying round chain)")
        print()
        print(critical_path(graph).table())
        return 0

    result = replay(log)
    messages = sum(len(event.deliveries) for event in log.rounds)
    print(f"flight log: n={log.n}, t={log.t}, field={log.field}, "
          f"seed={log.seed}")
    print(f"runs              : {len(log.runs())}")
    print(f"rounds            : {len(log.rounds)}")
    print(f"deliveries        : {messages}")
    print(f"faults recorded   : {len(log.faults)}")
    decoded = result.decoded_values()
    print(f"exposed coins     : {len(decoded)}")
    # a player the log records as crashed stopped reading: whatever part
    # of an exposure reached it afterwards is not a view anyone decoded
    crashed = {(fault.run, fault.src) for fault in log.faults
               if fault.kind == "crash"}
    outcomes = [
        {value for pid, value in values.items() if (run, pid) not in crashed}
        for (run, _coin), values in decoded.items()
    ]
    # agreeing on None is not agreement: a coin no receiver could decode
    # is a failed exposure
    failed = sum(1 for values in outcomes if values <= {None})
    if failed:
        print(f"failed exposures  : {failed}")
    disagreements = sum(1 for values in outcomes if len(values) > 1)
    print(f"unanimity breaks  : {disagreements}")
    return 1 if disagreements or failed else 0


def _cmd_forensics(args: argparse.Namespace) -> int:
    from repro.obs.forensics import analyze_log

    log = _load_flight_log(args.log)
    expected = _player_ids(args.expect, "--expect")
    report = analyze_log(log)
    print(report.summary())
    if args.expect is not None:
        actual = report.corrupt_players()
        if actual != expected:
            print(f"MISMATCH: expected {sorted(expected)}, "
                  f"implicated {sorted(actual)}", file=sys.stderr)
            return 1
        return 0
    return 1 if report.corrupt_players() else 0


def _cmd_health(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs.health import HealthMonitor

    ctx = _make_context(args)
    source = BootstrapCoinSource(
        context=ctx, batch_size=args.batch, expose_retries=args.retries
    )
    monitor = HealthMonitor(source=source).attach(ctx)
    for _ in range(args.coins):
        source.toss_element()
    print(json_module.dumps(monitor.snapshot(), indent=2, sort_keys=True))
    _write_export(args, ctx, health=monitor)
    healthy, reasons = monitor.check(
        max_bias=args.threshold,
        max_failures=args.max_failures,
        max_seed_depletion=args.max_seed_depletion,
        require_battery=args.battery,
    )
    for reason in reasons:
        print(f"UNHEALTHY: {reason}", file=sys.stderr)
    return 0 if healthy else 1


def _parse_what_if(text: str):
    """``"player=3,scale=10"`` -> ``(3, 10.0)`` (scale defaults to 10)."""
    player, scale = None, 10.0
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key == "player":
            player = _number(int, value, "--what-if player")
        elif key == "scale":
            scale = _number(float, value, "--what-if scale")
        else:
            raise _usage_error(f"bad --what-if component {part!r} "
                               f"(expected player=I,scale=S)")
    if player is None:
        raise _usage_error("--what-if needs player=I")
    return player, scale


def _parse_op_costs(text: Optional[str]) -> dict:
    """``"add=1e-9,mul=2e-9,inv=5e-8,interp=1e-6"`` -> CostModel kwargs."""
    if not text:
        return {}
    names = {"add": "add", "mul": "mul", "inv": "inv",
             "interp": "interpolation", "interpolation": "interpolation"}
    out = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        field_name = names.get(key.strip())
        if field_name is None:
            raise _usage_error(f"bad --op-cost component {part!r} "
                               f"(expected add=A,mul=M,inv=I,interp=P)")
        out[field_name] = _number(float, value, f"--op-cost {key.strip()}")
    return out


def _priced_critical_path(args: argparse.Namespace, ctx, graph):
    """The critical path of ``graph`` under the cost flags.

    Returns ``(model, step_ops, run_labels, result)``; per-step op
    deltas come from the context's recorded player spans.
    """
    from repro.obs.critical_path import (
        CostModel, critical_path, ops_from_recorder,
    )

    step_ops, run_labels = ops_from_recorder(ctx.recorder)
    model = CostModel(
        base_latency=args.base_latency,
        per_element_latency=args.per_element_latency,
        **_parse_op_costs(args.op_cost),
    )
    return model, step_ops, run_labels, critical_path(graph, model, step_ops)


def _print_what_if(args: argparse.Namespace, graph, model, step_ops):
    """The ``--what-if`` counterfactual, printed; None without the flag."""
    from repro.obs.critical_path import what_if

    if args.what_if is None:
        return None
    player, scale = _parse_what_if(args.what_if)
    counterfactual = what_if(graph, model, player=player, scale=scale,
                             step_ops=step_ops)
    print()
    print(counterfactual.table())
    return counterfactual


def _export_critpath(args: argparse.Namespace, ctx, graph, model, result,
                     counterfactual, payload: dict) -> None:
    """``--export`` (``payload`` plus path and what-if) and ``--chrome``."""
    import json as json_module

    if args.export is not None:
        payload["depths"] = {
            str(run): depth for run, depth in graph.depths().items()
        }
        payload["critical_path"] = result.to_dict()
        if counterfactual is not None:
            payload["what_if"] = counterfactual.to_dict()
        with open(args.export, "w") as handle:
            json_module.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote critical-path JSON to {args.export}", file=sys.stderr)

    if args.chrome is not None:
        content = to_chrome_trace(ctx.recorder, graph=graph,
                                  flows=args.flows, model=model)
        with open(args.chrome, "w") as handle:
            handle.write(content)
        print(f"wrote Chrome trace (with {args.flows} flow arrows) to "
              f"{args.chrome}", file=sys.stderr)


def _cmd_critpath_async(args: argparse.Namespace) -> int:
    """``critpath --runtime async``: latency attribution on async DAGs.

    Logical time replaces the round index, so the same longest-path
    machinery prices adversarial delivery schedules; depth conformance
    against the synchronous round model is (correctly) not asserted.
    """
    from repro.obs.causality import graph_from_log

    ctx = _make_context(args, record=True)
    flight = _attach_flight_recorder(args, ctx, always=True)
    values, runtimes, breaks, stuck = _run_async_coins(args, ctx, args.M)
    if stuck is not None:
        _write_flight_log(args, flight)
        return 1
    for index, distinct in breaks:
        print(f"UNANIMITY BREAK: coin {index} exposed {distinct}",
              file=sys.stderr)
    graph = graph_from_log(flight.log())
    # async round spans carry per-step op deltas exactly like lockstep
    # ones (the step settling delivery c is node (c+1, pid)), so the
    # same recorder->DAG pricing applies under adversarial schedules
    model, step_ops, run_labels, result = _priced_critical_path(
        args, ctx, graph
    )

    print(f"async critical path: n={ctx.n}, t={ctx.t}, k={args.k}, "
          f"coins={args.M}, sched-seed={args.sched_seed} "
          f"(base latency {args.base_latency:g}s/link)")
    for index, runtime in enumerate(runtimes):
        label = run_labels.get(index + 1, "async_coin")
        print(f"  run {index + 1}: {label} — "
              f"{runtime.delivery_count} deliveries, "
              f"logical time {runtime.logical_time}, "
              f"causal depth {graph.depth(index + 1)}")
    print(f"  span coverage: {ctx.recorder.coverage():.1%} "
          f"({len(step_ops)} op-priced steps)")
    print()
    print(result.table())

    counterfactual = _print_what_if(args, graph, model, step_ops)
    _export_critpath(args, ctx, graph, model, result, counterfactual, {
        "params": {"n": ctx.n, "t": ctx.t, "k": args.k, "M": args.M,
                   "seed": args.seed, "sched_seed": args.sched_seed,
                   "runtime": "async"},
        "deliveries": [r.delivery_count for r in runtimes],
        "logical_times": [r.logical_time for r in runtimes],
    })
    _write_flight_log(args, flight)
    return 1 if breaks else 0


def _cmd_critpath(args: argparse.Namespace) -> int:
    from repro.analysis.rounds import predicted_rounds
    from repro.obs.causality import graph_from_log
    from repro.obs.critical_path import op_profile, op_profile_table

    if args.runtime == "async":
        return _cmd_critpath_async(args)
    ctx, flight = _run_instrumented_coin_gen(args, flight_always=True)
    graph = graph_from_log(flight.log())
    model, step_ops, run_labels, result = _priced_critical_path(
        args, ctx, graph
    )

    print(f"critical path: n={ctx.n}, t={ctx.t}, k={args.k}, M={args.M} "
          f"(base latency {args.base_latency:g}s/link)")
    for run, label in sorted(run_labels.items()):
        print(f"  run {run}: {label}")
    print()
    print(result.table())

    profile_rows = None
    if args.op_profile:
        profile_rows = op_profile(graph, model, step_ops)
        print()
        print("op profile (critical-path contribution, heaviest first):")
        print(op_profile_table(profile_rows))

    counterfactual = _print_what_if(args, graph, model, step_ops)

    # fault-free structural gate: DAG depth == analysis.rounds prediction
    depth_checks = []
    spans = sorted(ctx.recorder.by_kind("protocol"), key=lambda s: s.t0)
    for run, protocol in enumerate(spans, start=1):
        expected = predicted_rounds(
            protocol.name,
            t=protocol.attrs.get("t", 0),
            iterations=protocol.attrs.get("iterations", 1),
        )
        if expected is None:
            continue
        depth_checks.append({
            "run": run, "protocol": protocol.name,
            "expected": expected, "measured": graph.depth(run),
            "ok": graph.depth(run) == expected,
        })
    if depth_checks:
        print()
        print("depth conformance (vs analysis.rounds predictions):")
        for check in depth_checks:
            print(f"  run {check['run']} {check['protocol']:<10} "
                  f"expected {check['expected']:>3} "
                  f"measured {check['measured']:>3}  "
                  f"{'ok' if check['ok'] else 'DEVIATION'}")

    payload = {
        "params": {"n": ctx.n, "t": ctx.t, "k": args.k, "M": args.M,
                   "seed": args.seed},
        "run_labels": {str(run): label
                       for run, label in run_labels.items()},
        "depth_checks": depth_checks,
    }
    if profile_rows is not None:
        payload["op_profile"] = [row.to_dict() for row in profile_rows]
    _export_critpath(args, ctx, graph, model, result, counterfactual,
                     payload)

    if args.assert_depth and not all(c["ok"] for c in depth_checks):
        print("DEPTH MISMATCH: happens-before depth deviates from the "
              "round model", file=sys.stderr)
        return 1
    return 0


def _cmd_waits(args: argparse.Namespace) -> int:
    """``repro waits``: liveness of async coin runs, read off their log.

    Records ``--coins`` async exposures in an in-memory flight log and
    prints the views :mod:`repro.obs.liveness` derives from it: the
    per-guard wait table and the stall classification.  A coin that
    never finishes is reported on stderr and exits 1; its stuck guards
    are the table's unfired waits (and unresolved stalls once they
    waited past the threshold).  ``--watchdog TICKS`` gates the exit
    code on zero stalls; ``--audit`` gates on the liveness conformance
    audit (fault-free runs must show zero stalls, zero unfired guards,
    and quorum-exact firing).
    """
    from repro.obs import audit_liveness, default_threshold
    from repro.obs.liveness import (
        pivotal_counts,
        stall_table,
        stalls,
        wait_records,
        wait_table,
    )

    if args.runtime != "async":
        print("repro waits: guard wait-state telemetry is per-delivery — "
              "use --runtime async (the default here)", file=sys.stderr)
        return 2
    ctx = _make_context(args)
    flight = _attach_flight_recorder(args, ctx, always=True)
    threshold = (
        args.watchdog if args.watchdog is not None
        else default_threshold(ctx.n)
    )
    values, runtimes, breaks, stuck = _run_async_coins(args, ctx, args.coins)
    for index, distinct in breaks:
        print(f"UNANIMITY BREAK: coin {index} exposed {distinct}",
              file=sys.stderr)
    log = flight.log()
    records = wait_records(log)
    found = stalls(log, threshold)

    crashed = _crashed_players(args)
    print(f"liveness observatory: n={ctx.n}, t={ctx.t}, k={args.k}, "
          f"coins={args.coins}, sched-seed={args.sched_seed}, "
          f"crashed={','.join(map(str, sorted(crashed))) or 'none'}, "
          f"watchdog threshold={threshold} logical ticks")
    print()
    print(wait_table(records))
    print()
    waited = [r.wait_time for r in records if r.fired]
    print(f"{'waits armed / fired':42s} {len(records)} / {len(waited)}")
    print(f"{'mean / max wait (logical ticks)':42s} "
          f"{sum(waited) / len(waited) if waited else 0.0:.1f} / "
          f"{max(waited, default=0)}")
    pivotal = pivotal_counts(records)
    if pivotal:
        ranked = sorted(pivotal, key=lambda p: (-pivotal[p], p))
        print(f"{'pivotal senders (quorums completed)':42s} "
              + ", ".join(f"{p}:{pivotal[p]}" for p in ranked))
    print()
    print(stall_table(found, threshold))

    report = None
    if args.audit:
        report = audit_liveness(log, threshold)
        print()
        print(report.table())

    if args.export is not None:
        _save_export(args, to_prometheus(
            metrics=ctx.metrics, liveness=log, watchdog=threshold
        ))

    if breaks or stuck is not None:
        return 1
    if args.watchdog is not None and found:
        print(_stall_summary(found, threshold), file=sys.stderr)
        return 1
    if args.audit and not report.ok:
        print("LIVENESS DEVIATION: see audit table above", file=sys.stderr)
        return 1
    return 0


def _load_diff_profile(path: str):
    """The :class:`~repro.obs.diffing.RunProfile` of a span JSONL export."""
    from repro.obs.diffing import profile_from_jsonl

    try:
        with open(path) as handle:
            return profile_from_jsonl(handle.read(), source=path)
    except (OSError, ValueError) as exc:
        raise _usage_error(f"{path}: not a span JSONL export ({exc})")


def _cmd_diff(args: argparse.Namespace) -> int:
    """``repro diff A B``: per-phase × per-op deltas + priced attribution."""
    from repro.obs.critical_path import CostModel
    from repro.obs.diffing import DEFAULT_PRICING, diff_profiles

    diff = diff_profiles(_load_diff_profile(args.a),
                         _load_diff_profile(args.b))
    costs = _parse_op_costs(args.op_cost)
    model = CostModel(**costs) if costs else DEFAULT_PRICING
    report = diff.report(model=model, label_a=args.a, label_b=args.b) + "\n"
    print(report, end="")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote attribution report to {args.out}", file=sys.stderr)
    if args.expect_empty and not diff.is_empty():
        print("DIFF NOT EMPTY: deterministic deltas found (see above)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.verifier import report, verify_all

    field = GF2k(args.k, backend=getattr(args, "backend", "auto"))
    checks = verify_all(field, n=args.n, t=args.t, M=args.M,
                        seed=args.seed)
    print(report(checks))
    return 0 if all(check.passed for check in checks) else 1


# ---------------------------------------------------------------------------
# campaign: scenario-space sweeps under the composed violation oracle
# ---------------------------------------------------------------------------

def _campaign_space(args: argparse.Namespace):
    from repro.campaign.space import default_space

    return default_space(
        runtime=args.runtime,
        seeds=tuple(range(args.seeds)),
        sched_seeds=tuple(range(args.sched_seeds)),
        clean_only=args.clean_only,
    )


def _campaign_report_text(args, coverage, clusters, space) -> str:
    from repro.campaign.triage import triage_table, triage_to_json
    import json as json_module

    if args.report == "json":
        doc = {
            "coverage": coverage.to_dict(space),
            "triage": [c.to_dict() for c in clusters],
        }
        return json_module.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.report == "prom":
        return coverage.to_prometheus(space)
    return (coverage.table(space) + "\n\n" + triage_table(clusters) + "\n"
            if clusters else coverage.table(space) + "\n")


def _emit_report(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote campaign report to {args.out}", file=sys.stderr)
    else:
        print(text, end="")


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    import os

    from repro.campaign import CampaignLedger, run_campaign, shrink, \
        write_artifact
    from repro.campaign.space import known_bad_scenarios
    from repro.campaign.triage import triage

    space = _campaign_space(args)
    if args.budget is not None:
        # --budget 0 is meaningful: no space cells (e.g. --known-bad only)
        cells = space.sample(args.budget, seed=args.campaign_seed)
    else:
        cells = space.cells()
    if args.known_bad:
        cells = cells + known_bad_scenarios()
    if not cells:
        raise _usage_error("campaign space is empty under these options")
    ledger = None
    if args.ledger:
        ledger = CampaignLedger(args.ledger)
        ledger.write_header(campaign_seed=args.campaign_seed,
                            cells=len(cells), budget=args.budget,
                            known_bad=bool(args.known_bad))
    result = run_campaign(cells, ledger=ledger)

    shrunk_paths = []
    if args.shrink and result.violated:
        os.makedirs(args.artifacts, exist_ok=True)
        for outcome in result.violated:
            reduced = shrink(outcome.scenario, outcome)
            path = os.path.join(
                args.artifacts, f"repro-{reduced.minimal.cell_id()}.json"
            )
            write_artifact(path, reduced)
            shrunk_paths.append(path)

    clusters = triage([o.to_row() for o in result.violated])
    _emit_report(args, _campaign_report_text(args, result.coverage,
                                             clusters, space))
    counts = result.status_counts()
    coverage_pct = result.coverage.percentage(space)
    print(f"campaign: {len(cells)} cells — {counts['clean']} clean, "
          f"{counts['violated']} violated, {counts['error']} errors; "
          f"coverage {coverage_pct:.1f}%", file=sys.stderr)
    for path in shrunk_paths:
        print(f"repro artifact: {path}", file=sys.stderr)
    if result.violated:
        return 1
    if args.min_coverage is not None and coverage_pct < args.min_coverage:
        print(f"COVERAGE GATE: {coverage_pct:.1f}% < "
              f"{args.min_coverage:.1f}%", file=sys.stderr)
        return 1
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import CoverageMap, read_ledger, violated_rows
    from repro.campaign.triage import triage

    try:
        _headers, rows = read_ledger(args.ledger)
    except OSError as exc:
        raise _usage_error(f"{args.ledger}: cannot read ledger ({exc})")
    except ValueError as exc:
        raise _usage_error(str(exc))
    coverage = CoverageMap()
    for row in rows:
        coverage.record_row(row)
    clusters = triage(violated_rows(rows))
    # coverage percentages are measured against the stock space the
    # run-side options describe (the ledger stores cells, not axes)
    _emit_report(args, _campaign_report_text(args, coverage, clusters,
                                             _campaign_space(args)))
    return 0


def _cmd_campaign_shrink(args: argparse.Namespace) -> int:
    import os

    from repro.campaign import read_ledger, shrink, violated_rows, \
        write_artifact
    from repro.campaign.space import Scenario

    try:
        _headers, rows = read_ledger(args.ledger)
    except OSError as exc:
        raise _usage_error(f"{args.ledger}: cannot read ledger ({exc})")
    except ValueError as exc:
        raise _usage_error(str(exc))
    rows = violated_rows(rows)
    if args.cell:
        rows = [row for row in rows if row["cell"] == args.cell]
        if not rows:
            raise _usage_error(
                f"{args.ledger}: no violated row with cell id {args.cell}"
            )
    if not rows:
        print("ledger has no violated cells; nothing to shrink")
        return 0
    os.makedirs(args.artifacts, exist_ok=True)
    stale = 0
    for row in rows:
        scenario = Scenario.from_dict(row["scenario"])
        try:
            reduced = shrink(scenario)
        except ValueError:
            print(f"STALE: cell {row['cell']} no longer trips its oracle",
                  file=sys.stderr)
            stale += 1
            continue
        path = os.path.join(
            args.artifacts, f"repro-{reduced.minimal.cell_id()}.json"
        )
        write_artifact(path, reduced)
        print(f"{row['cell']} -> {reduced.minimal.cell_id()} "
              f"({reduced.accepted} reduction(s) in {reduced.steps} "
              f"step(s)): {path}")
    return 1 if stale else 0


def _cmd_campaign_replay(args: argparse.Namespace) -> int:
    from repro.campaign import check_artifact, load_artifact

    try:
        data = load_artifact(args.artifact)
    except OSError as exc:
        raise _usage_error(f"{args.artifact}: cannot read artifact ({exc})")
    except ValueError as exc:
        raise _usage_error(str(exc))
    reproduced, detail = check_artifact(data)
    print(f"{args.artifact}: {detail}")
    return 0 if reproduced else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    handler = {
        "run": _cmd_campaign_run,
        "report": _cmd_campaign_report,
        "shrink": _cmd_campaign_shrink,
        "replay": _cmd_campaign_replay,
    }[args.campaign_command]
    return handler(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Pseudo-Random Bit Generators (PODC 1996)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    toss = sub.add_parser("toss", help="generate shared coins")
    _add_system_arguments(toss)
    toss.add_argument("--count", type=int, default=64, help="bits (or elements)")
    toss.add_argument("--batch", type=int, default=16, help="coins per D-PRBG batch")
    toss.add_argument("--elements", action="store_true",
                      help="emit k-ary coins instead of bits")
    toss.add_argument("--stats", action="store_true",
                      help="print amortized cost summary")
    toss.add_argument("--watchdog", type=int, default=None, metavar="TICKS",
                      help="flag guards waiting past TICKS logical ticks "
                           "and exit non-zero on any stall "
                           "(--runtime async only)")
    _add_export_arguments(toss)
    _add_flight_argument(toss)
    toss.set_defaults(func=_cmd_toss)

    costs = sub.add_parser("costs", help="evaluate the paper's cost formulas")
    _add_system_arguments(costs)
    costs.add_argument("--M", type=int, default=64, help="batch size")
    costs.set_defaults(func=_cmd_costs)

    vss = sub.add_parser("vss", help="run Protocol VSS once")
    _add_system_arguments(vss, default_t=2)
    vss.add_argument("--cheat", action="store_true", help="corrupt the dealing")
    vss.add_argument("--cheat-player", type=int, default=3,
                     help="whose share to corrupt")
    vss.set_defaults(func=_cmd_vss)

    beacon = sub.add_parser("beacon", help="run a randomness beacon")
    _add_system_arguments(beacon)
    beacon.add_argument("--ticks", type=int, default=10)
    beacon.add_argument("--batch", type=int, default=16)
    beacon.set_defaults(func=_cmd_beacon)

    verify = sub.add_parser(
        "verify", help="measure live runs against the paper's formulas"
    )
    _add_system_arguments(verify)
    verify.add_argument("--M", type=int, default=16, help="batch size")
    verify.set_defaults(func=_cmd_verify)

    trace = sub.add_parser(
        "trace",
        help="run one instrumented Coin-Gen and audit it against the lemmas",
    )
    _add_system_arguments(trace)
    trace.add_argument("--M", type=int, default=8, help="coins per batch")
    trace.add_argument("--audit", action="store_true",
                       help="exit non-zero if the conformance audit deviates")
    _add_export_arguments(trace)
    _add_flight_argument(trace)
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="run one instrumented Coin-Gen and print Prometheus metrics",
    )
    _add_system_arguments(metrics)
    metrics.add_argument("--M", type=int, default=8, help="coins per batch")
    _add_export_arguments(metrics)
    metrics.set_defaults(func=_cmd_metrics)

    replay = sub.add_parser(
        "replay",
        help="re-drive a flight log's decode paths, or diff two logs",
    )
    replay.add_argument("log", help="flight log recorded with --flight-log")
    replay.add_argument("--diff", default=None, metavar="OTHER",
                        help="report the first divergence from OTHER "
                             "(exit 1 when the logs differ)")
    replay.add_argument("--causal", action="store_true",
                        help="rebuild the happens-before DAG from the log "
                             "and print per-run depths + critical paths")
    replay.set_defaults(func=_cmd_replay)

    critpath = sub.add_parser(
        "critpath",
        help="critical-path latency attribution for one instrumented "
             "Coin-Gen (happens-before DAG + cost model)",
    )
    _add_system_arguments(critpath)
    critpath.add_argument("--M", type=int, default=8, help="coins per batch")
    critpath.add_argument("--what-if", default=None,
                          metavar="player=I,scale=S",
                          help="re-price the same graph with player I's "
                               "links S x slower and report which coins' "
                               "exposure latency moves")
    critpath.add_argument("--export", default=None, metavar="PATH",
                          help="write the critical-path analysis as JSON")
    critpath.add_argument("--chrome", default=None, metavar="PATH",
                          help="write a Chrome/Perfetto trace with causal "
                               "flow arrows")
    critpath.add_argument("--flows", choices=("critical", "all", "none"),
                          default="critical",
                          help="which message edges --chrome draws as "
                               "arrows")
    critpath.add_argument("--base-latency", type=float, default=1.0,
                          help="seconds per message link (cost model)")
    critpath.add_argument("--per-element-latency", type=float, default=0.0,
                          help="extra seconds per field element carried")
    critpath.add_argument("--op-profile", action="store_true",
                          help="rank (phase, op) pairs by critical-path "
                               "contribution — the vectorization targets")
    critpath.add_argument("--op-cost", default=None,
                          metavar="add=A,mul=M,inv=I,interp=P",
                          help="per-op compute seconds (default: free)")
    critpath.add_argument("--assert-depth", action="store_true",
                          help="exit non-zero unless every run's DAG depth "
                               "matches the analysis.rounds prediction")
    _add_flight_argument(critpath)
    critpath.set_defaults(func=_cmd_critpath)

    waits = sub.add_parser(
        "waits",
        help="liveness observatory: guard wait-state telemetry, "
             "quorum-latency attribution, and the stall watchdog",
    )
    _add_system_arguments(waits, default_t=2)
    waits.add_argument("--coins", type=int, default=4,
                       help="async coin exposures to run")
    waits.add_argument("--watchdog", type=int, default=None, metavar="TICKS",
                       help="stall threshold in logical ticks (default "
                            "4*n^2); giving it gates the exit code on "
                            "zero stalls")
    waits.add_argument("--audit", action="store_true",
                       help="exit non-zero unless the liveness conformance "
                            "audit passes (fault-free runs: zero stalls, "
                            "every guard fired at exactly its quorum)")
    _add_export_arguments(waits, formats=("prom",))
    waits.set_defaults(func=_cmd_waits, runtime="async")

    diff_cmd = sub.add_parser(
        "diff",
        help="cross-run diff: per-phase x per-op deltas and CostModel-"
             "priced regression attribution between two recordings",
    )
    diff_cmd.add_argument("a", help="span JSONL export (the 'before' run)")
    diff_cmd.add_argument("b", help="span JSONL export (the 'after' run)")
    diff_cmd.add_argument("--out", default=None, metavar="PATH",
                          help="also write the attribution report to PATH")
    diff_cmd.add_argument("--op-cost", default=None,
                          metavar="add=A,mul=M,inv=I,interp=P",
                          help="per-op pricing for the attribution "
                               "(default: microbenchmark-derived weights)")
    diff_cmd.add_argument("--expect-empty", action="store_true",
                          help="exit non-zero if any deterministic metric "
                               "differs (identical-seed conformance gate)")
    diff_cmd.set_defaults(func=_cmd_diff)

    forensics = sub.add_parser(
        "forensics",
        help="analyze a flight log for Byzantine behaviour",
    )
    forensics.add_argument("log", help="flight log recorded with --flight-log")
    forensics.add_argument("--expect", default=None, metavar="PLAYERS",
                           help="comma-separated player ids that must be "
                                "exactly the implicated set (exit 1 "
                                "otherwise); empty string = nobody")
    forensics.set_defaults(func=_cmd_forensics)

    health = sub.add_parser(
        "health",
        help="run a living coin source and judge its operational health",
    )
    _add_system_arguments(health)
    health.add_argument("--coins", type=int, default=8,
                        help="k-ary coins to toss")
    health.add_argument("--batch", type=int, default=16,
                        help="coins per D-PRBG batch")
    health.add_argument("--retries", type=int, default=0,
                        help="exposure retries before failing a toss")
    health.add_argument("--threshold", type=float, default=None,
                        metavar="BIAS",
                        help="max tolerated |rolling bias| (exit 1 beyond)")
    health.add_argument("--max-failures", type=int, default=None,
                        help="max tolerated exposure failures")
    health.add_argument("--max-seed-depletion", type=float, default=None,
                        help="max tolerated seed-stock depletion in [0,1]")
    health.add_argument("--battery", action="store_true",
                        help="also require the statistical battery to pass")
    _add_export_arguments(health)
    health.set_defaults(func=_cmd_health)

    campaign = sub.add_parser(
        "campaign",
        help="sweep the scenario space under the composed violation oracle",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    def _add_campaign_space_arguments(parser_: argparse.ArgumentParser):
        parser_.add_argument("--runtime", choices=("lockstep", "async",
                                                   "both"),
                             default="both", help="runtime axis of the space")
        parser_.add_argument("--seeds", type=int, default=3,
                             help="protocol seeds 0..N-1 on the seed axis")
        parser_.add_argument("--sched-seeds", type=int, default=2,
                             help="scheduler seeds 0..N-1 on that axis")
        parser_.add_argument("--clean-only", action="store_true",
                             help="honest cells only (no adversaries or "
                                  "fault chains)")

    def _add_campaign_report_arguments(parser_: argparse.ArgumentParser):
        parser_.add_argument("--report", choices=("table", "json", "prom"),
                             default="table",
                             help="coverage + triage output format")
        parser_.add_argument("--out", default=None, metavar="PATH",
                             help="write the report here instead of stdout")

    campaign_run = campaign_sub.add_parser(
        "run", help="execute a (sampled) slice of the scenario space",
    )
    _add_campaign_space_arguments(campaign_run)
    campaign_run.add_argument("--budget", type=int, default=None,
                              metavar="N",
                              help="run a seeded random sample of N cells "
                                   "instead of the full space (CI soak); "
                                   "0 skips the space entirely, e.g. for a "
                                   "--known-bad-only run")
    campaign_run.add_argument("--campaign-seed", type=int, default=0,
                              help="seed for the --budget sample")
    campaign_run.add_argument("--known-bad", action="store_true",
                              help="append the seeded known-bad scenarios "
                                   "(negative controls; exit 1 expected)")
    campaign_run.add_argument("--ledger", default=None, metavar="PATH",
                              help="append per-cell rows to this JSONL "
                                   "campaign ledger")
    campaign_run.add_argument("--shrink", action="store_true",
                              help="shrink every violated cell and write "
                                   "repro artifacts")
    campaign_run.add_argument("--artifacts", default="campaign-artifacts",
                              metavar="DIR",
                              help="directory for --shrink repro artifacts")
    campaign_run.add_argument("--min-coverage", type=float, default=None,
                              metavar="PCT",
                              help="exit 1 when scenario-space coverage "
                                   "lands below PCT percent")
    _add_campaign_report_arguments(campaign_run)

    campaign_report = campaign_sub.add_parser(
        "report", help="coverage map + violation triage from a ledger",
    )
    campaign_report.add_argument("--ledger", required=True, metavar="PATH",
                                 help="campaign ledger to read")
    _add_campaign_space_arguments(campaign_report)
    _add_campaign_report_arguments(campaign_report)

    campaign_shrink = campaign_sub.add_parser(
        "shrink", help="minimize recorded violations into repro artifacts",
    )
    campaign_shrink.add_argument("--ledger", required=True, metavar="PATH",
                                 help="campaign ledger holding the "
                                      "violations")
    campaign_shrink.add_argument("--cell", default=None, metavar="ID",
                                 help="shrink only this cell id")
    campaign_shrink.add_argument("--artifacts",
                                 default="campaign-artifacts", metavar="DIR",
                                 help="directory for repro artifacts")

    campaign_replay = campaign_sub.add_parser(
        "replay", help="re-run a repro artifact; exit 1 when it went stale",
    )
    campaign_replay.add_argument("artifact", help="repro artifact JSON file")

    campaign.set_defaults(func=_cmd_campaign)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Command handlers signal usage errors by raising ``SystemExit(2)``
    (see :func:`_usage_error`); those are normalized to a return value
    here so programmatic callers get the code instead of an exception.
    Argparse's own exits (bad flags) still propagate.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        print(exc.code, file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
