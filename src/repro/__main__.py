"""Top-level CLI: inspect benchmarks, estimate dataflows, run simulations.

Usage::

    python -m repro info                      # library + benchmark summary
    python -m repro backends                  # registered estimation backends
    python -m repro analyze BTS3              # Table-II-style analysis
    python -m repro estimate ARK --backend rpu --schedule all
    python -m repro verify --graphs           # static analysis gate
    python -m repro simulate ARK --dataflow OC --bandwidth 12.8
    python -m repro trace ARK --dataflow MP --bandwidth 8

Everything routes through :mod:`repro.api` — the same facade user code
calls.  (Full paper regeneration lives in ``python -m repro.experiments``.)
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.api import describe_backends, estimate, list_backends, list_presets
from repro.experiments.report import format_table
from repro.params import BENCHMARKS, MB, get_benchmark


def cmd_info(_args) -> int:
    from repro.core import DATAFLOWS

    print(f"repro {__version__} — CiFlow (ISPASS 2024) reproduction")
    print()
    rows = [spec.describe() for spec in BENCHMARKS.values()]
    print(format_table(rows, title="benchmarks (paper Table III):"))
    print()
    from repro.workloads import list_workloads

    print("dataflows:", ", ".join(f"{d.name} ({d.title})" for d in DATAFLOWS.values()))
    print("backends:", ", ".join(list_backends()))
    print("workload programs:", ", ".join(list_workloads()),
          "(e.g. `repro estimate BOOT --phases`)")
    print("session presets:", ", ".join(list_presets()))
    print("experiments: python -m repro.experiments --list")
    return 0


def cmd_backends(_args) -> int:
    """Stable, scriptable listing of the registered estimation backends."""
    rows = [
        {"backend": name, "description": doc}
        for name, doc in describe_backends().items()
    ]
    print(format_table(rows, title="registered backends (sorted, stable):"))
    return 0


def cmd_serve(args) -> int:
    """Run the network estimate server until shutdown or SIGINT/SIGTERM."""
    import asyncio
    import signal as _signal

    import os

    from repro.net import ServerConfig, load_mix, load_tenant_specs, serve

    tenants = load_tenant_specs(args.tenants) if args.tenants else ()
    warm_mix = load_mix(args.warm_mix) if args.warm_mix else ()
    if args.fault_plan:
        # Through the environment (not faults.install) so forked shard
        # workers inherit the plan too.
        os.environ["REPRO_FAULT_PLAN"] = args.fault_plan

    async def _run() -> int:
        config = ServerConfig(
            host=args.host, port=args.port, http_port=args.http_port,
            workers=args.workers, admission=args.admission,
            disk_cache=not args.no_disk_cache,
            max_queue_depth=args.max_queue_depth,
            idle_warm_after=args.idle_warm_after,
            warm_top_k=args.warm_top_k,
            stall_timeout=args.stall_timeout or None,
            tenants=tenants, warm_mix=warm_mix,
        )
        server = await serve(config)
        loop = asyncio.get_running_loop()
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: loop.create_task(server.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        extras = [f"workers={config.workers}",
                  f"admission={config.admission}",
                  f"tenants={'open' if not tenants else len(tenants)}"]
        if server.http_port is not None:
            extras.append(f"http={config.host}:{server.http_port}")
        print(f"serving on {config.host}:{server.port} "
              f"({', '.join(extras)}); SIGHUP recycles workers, "
              f"Ctrl-C drains and stops", flush=True)
        await server.wait_closed()
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130


def cmd_serve_load(args) -> int:
    """Drive a server with closed-loop load; optionally self-hosted."""
    import asyncio
    import json

    from repro.api import build_plan
    from repro.net import (
        EstimateClient,
        ServerConfig,
        load_mix,
        run_load,
        serve,
    )
    from repro.net.loadgen import weighted_plans

    if args.mix:
        plans = weighted_plans(load_mix(args.mix))
    else:
        # A small sweep of distinct machine points around the default
        # HELR request: realistic dedup (repeats) + real pool sharding.
        plans = [
            build_plan(args.workload, bandwidth_gbs=64.0 + 8 * i)
            for i in range(max(1, args.distinct))
        ]

    async def _run() -> int:
        server = None
        if args.connect:
            host, _, port_s = args.connect.rpartition(":")
            host, port = host or "127.0.0.1", int(port_s)
        else:
            server = await serve(ServerConfig(
                workers=args.workers, admission=args.admission,
                disk_cache=not args.no_disk_cache,
            ))
            host, port = server.config.host, server.port
        try:
            result = await run_load(
                host, port, plans=plans, duration_s=args.duration,
                concurrency=args.concurrency,
                connections=args.connections, token=args.token,
                deadline_s=args.deadline,
            )
            row = result.as_dict()
            print(format_table([row], title=(
                f"{args.duration:g}s x {args.concurrency} workers over "
                f"{args.connections} connections ({len(plans)} plan mix):"
            )))
            if args.save_mix:
                async with EstimateClient(host, port,
                                          token=args.token) as cli:
                    status = await cli.status(mix=True)
                with open(args.save_mix, "w", encoding="utf-8") as handle:
                    json.dump(status["mix"], handle, indent=2)
                    handle.write("\n")
                print(f"observed request mix saved to {args.save_mix} "
                      f"({len(status['mix']['mix'])} distinct plans)")
            return 0 if result.dropped == 0 else 1
        finally:
            if server is not None:
                await server.stop()

    return asyncio.run(_run())


def cmd_verify(args) -> int:
    """Static analysis over plans (and optionally task graphs).

    Exit status 1 if any subject reports an error — the CI gate.
    """
    from repro.analysis import analyze
    from repro.api import build_plan
    from repro.workloads import list_workloads

    names = args.targets or sorted(BENCHMARKS) + list_workloads()
    subjects = []
    if getattr(args, "serve", None):
        # Vet a saved request-mix file (the serving/warming input
        # format) offline: every plan a server would be asked to warm
        # or replay goes through the same static analysis admission
        # would apply.
        from repro.net import load_mix

        for i, (plan, count) in enumerate(load_mix(args.serve)):
            subjects.append((
                f"mix[{i}] {plan.digest[:12]} x{count} "
                f"({plan.backend}/{plan.schedule})",
                analyze(plan),
            ))
    else:
        for name in names:
            for backend in list_backends():
                for schedule in ("MP", "DC", "OC", "SOLVER"):
                    plan = build_plan(name, backend=backend,
                                      schedule=schedule)
                    subjects.append(
                        (f"plan {name}/{backend}/{schedule}", analyze(plan))
                    )

    if args.graphs:
        from repro.core import DATAFLOWS, DataflowConfig

        config = DataflowConfig()
        for name in names:
            if name not in BENCHMARKS:
                continue
            spec = get_benchmark(name)
            for dataflow in DATAFLOWS.values():
                graph = dataflow.build(spec, config)
                subjects.append(
                    (f"graph {spec.name}/{dataflow.name}", analyze(graph))
                )

    rows = [
        {"subject": label, "errors": len(report.errors),
         "warnings": len(report.warnings), "infos": len(report.infos)}
        for label, report in subjects
    ]
    print(format_table(rows, title="static analysis:"))
    failed = False
    for label, report in subjects:
        for diag in report.errors + report.warnings:
            print(f"{label}: {diag.render()}")
        failed = failed or bool(report.errors)
    clean = sum(1 for _, report in subjects if report.ok)
    print(f"\n{clean}/{len(subjects)} subjects clean; "
          f"{'FAIL' if failed else 'OK'}")
    return 1 if failed else 0


def _options(args) -> dict:
    opts = {
        "sram_mb": args.sram_mb,
        "evk_on_chip": not args.stream_keys,
        "key_compression": getattr(args, "compress_keys", False),
    }
    if hasattr(args, "bandwidth"):
        opts["bandwidth_gbs"] = args.bandwidth
    if hasattr(args, "modops"):
        opts["modops_scale"] = args.modops
    return opts


def cmd_analyze(args) -> int:
    spec = get_benchmark(args.benchmark)
    reports = estimate(spec, backend="analytic", schedule="all",
                       **_options(args))
    rows = [r.as_row() for r in reports]
    print(format_table(rows, title=f"{spec.name}: DRAM traffic and AI"))
    return 0


def cmd_estimate(args) -> int:
    reports = estimate(args.benchmark, backend=args.backend,
                       schedule=args.schedule, **_options(args))
    if not isinstance(reports, list):
        reports = [reports]
    print(format_table([r.as_row() for r in reports],
                       title=f"{args.benchmark.upper()} via {args.backend!r}:"))
    if args.phases:
        for report in reports:
            if not report.phases:
                print(f"\n{report.benchmark}/{report.schedule}: "
                      "no phase breakdown (single-HKS benchmark)")
                continue
            print()
            print(format_table(
                report.phase_rows(),
                title=f"{report.benchmark}/{report.schedule} "
                      "per-phase breakdown (descending chain levels):",
            ))
    return 0


def cmd_schedule(args) -> int:
    """Solve (or recall) the best schedule per spec of one workload."""
    from repro import sched
    from repro.core import DataflowConfig

    config = DataflowConfig(
        data_sram_bytes=args.sram_mb * MB,
        evk_on_chip=not args.stream_keys,
        key_compression=args.compress_keys,
    )
    if args.traffic:
        objective = sched.Objective.traffic()
        unit, scale = "MB", 1.0 / MB
    else:
        objective = sched.Objective.latency(
            bandwidth_gbs=args.bandwidth, modops_scale=args.modops
        )
        unit, scale = "ms", 1.0
    rows = []
    records = []
    for spec, calls, solved in sched.solve_workload(
        args.workload, config, objective
    ):
        rec = solved.record
        rows.append({
            "spec": f"{spec.name}(kl={spec.kl})",
            "hks": calls,
            "schedule": solved.decision.summary(),
            f"cost_{unit}": round(solved.cost * scale, 3),
            "hand-written": rec.legacy_best,
            f"hand_{unit}": round(rec.legacy_best_cost * scale, 3),
        })
        records.append(rec)
    keys = "streamed" if args.stream_keys else "on-chip"
    print(format_table(
        rows,
        title=(f"{args.workload.upper()} schedule solver "
               f"({objective.metric}, {args.sram_mb} MB SRAM, keys {keys}):"),
    ))
    if args.explain:
        for rec in records:
            print(f"\n{rec.spec_name}: {rec.reason}")
            print(f"  considered {rec.considered} candidates, "
                  f"evaluated {rec.evaluated} exactly")
        program_decision = {
            "RESNET_BOOT": sched.RESNET_DECISION,
            "HELR": sched.HELR_DECISION,
        }.get(args.workload.upper())
        if program_decision is not None:
            from repro.workloads import bootstrap_phases, bootstrap_plan
            from repro.workloads.builders import _BOOT_SPEC

            _, post_boot = bootstrap_phases(_BOOT_SPEC, bootstrap_plan())
            print(f"\n{args.workload.upper()} program structure:")
            for line in program_decision.explain(post_boot):
                print(f"  {line}")
    return 0


def cmd_simulate(args) -> int:
    reports = estimate(args.benchmark, backend="rpu", schedule=args.dataflow,
                       **_options(args))
    for report in reports if isinstance(reports, list) else [reports]:
        print(
            f"{report.benchmark}/{report.schedule} @ {args.bandwidth} GB/s, "
            f"{args.modops:g}x MODOPS, keys "
            f"{'streamed' if args.stream_keys else 'on-chip'}:"
        )
        print(f"  runtime        {report.latency_ms:10.2f} ms")
        print(f"  DRAM traffic   {report.total_bytes / MB:10.1f} MB")
        print(f"  compute idle   {report.compute_idle_fraction * 100:10.1f} %")
        print(f"  achieved       {report.achieved_gbs:10.1f} GB/s, "
              f"{report.achieved_gops:.1f} GOPS")
    return 0


def cmd_trace(args) -> int:
    # Timeline collection needs the raw simulator; this stays a research
    # view below the facade.
    from repro.core import DataflowConfig, get_dataflow
    from repro.rpu import RPUSimulator
    from repro.rpu.trace_report import render_trace_summary
    from repro.sched import HKSDecision, Objective, decision_graph, machine_for

    spec = get_benchmark(args.benchmark)
    config = DataflowConfig(
        data_sram_bytes=args.sram_mb * MB,
        evk_on_chip=not args.stream_keys,
        key_compression=args.compress_keys,
    )
    objective = Objective.latency(args.bandwidth, args.modops)
    graph, _ = decision_graph(
        spec, config, HKSDecision(base=get_dataflow(args.dataflow).name),
        objective)
    result = RPUSimulator(machine_for(config, objective)).simulate(
        graph, collect_trace=True)
    print(render_trace_summary(
        result, title=f"{spec.name}/{args.dataflow.upper()} @ {args.bandwidth} GB/s"
    ))
    return 0


def _add_machine_args(parser, dataflow: bool = True) -> None:
    parser.add_argument("benchmark", help="BTS1..3, ARK or DPRIVE")
    if dataflow:
        parser.add_argument("--dataflow", default="OC", help="MP, DC or OC")
    parser.add_argument("--bandwidth", type=float, default=64.0,
                        help="off-chip bandwidth in GB/s")
    parser.add_argument("--modops", type=float, default=1.0,
                        help="compute throughput multiplier")
    parser.add_argument("--sram-mb", type=int, default=32,
                        help="on-chip data memory in MB")
    parser.add_argument("--stream-keys", action="store_true",
                        help="stream evks from DRAM instead of key SRAM")
    parser.add_argument("--compress-keys", action="store_true",
                        help="seed-compress streamed keys (half traffic)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="library and benchmark summary")
    p_backends = sub.add_parser(
        "backends", help="registered estimation backends (stable order)"
    )
    p_backends.set_defaults(func=cmd_backends)
    p_verify = sub.add_parser(
        "verify",
        help="static analysis of plans and task graphs",
    )
    p_verify.add_argument("targets", nargs="*",
                          help="benchmark/workload names (default: all)")
    p_verify.add_argument("--graphs", action="store_true",
                          help="also verify the MP/DC/OC task graphs")
    p_verify.add_argument("--serve", metavar="MIX_FILE",
                          help="verify every plan in a saved request-mix "
                               "file instead (the serve --warm-mix format)")
    p_verify.set_defaults(func=cmd_verify)
    p_srv = sub.add_parser(
        "serve", help="network estimate server (TCP frames + HTTP)"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = pick a free one)")
    p_srv.add_argument("--http-port", type=int, default=None,
                       help="also serve HTTP/1.1 on this port")
    p_srv.add_argument("--workers", type=int, default=2,
                       help="shard pool size (0/1 = in-process)")
    p_srv.add_argument("--admission", default="strict",
                       choices=("strict", "warn", "off"))
    p_srv.add_argument("--max-queue-depth", type=int, default=256,
                       help="global backpressure bound")
    p_srv.add_argument("--tenants", metavar="FILE",
                       help="JSON tenant list (omit = open single-tenant)")
    p_srv.add_argument("--warm-mix", metavar="FILE",
                       help="request-mix file to pre-warm at startup")
    p_srv.add_argument("--idle-warm-after", type=float, default=2.0,
                       help="idle seconds before speculative warming")
    p_srv.add_argument("--stall-timeout", type=float, default=30.0,
                       help="kill shard workers hung longer than this "
                            "many seconds (0 disables)")
    p_srv.add_argument("--fault-plan", default=None, metavar="JSON_OR_FILE",
                       help="REPRO_FAULT_PLAN fault-injection plan "
                            "(inline JSON or a file path; chaos drills)")
    p_srv.add_argument("--warm-top-k", type=int, default=4,
                       help="hottest digests pre-submitted on idle")
    p_srv.add_argument("--no-disk-cache", action="store_true")
    p_srv.set_defaults(func=cmd_serve)
    p_load = sub.add_parser(
        "serve-load", help="closed-loop load against an estimate server"
    )
    p_load.add_argument("--connect", metavar="HOST:PORT",
                        help="target server (omit = self-host one)")
    p_load.add_argument("--workload", default="HELR",
                        help="plan workload when no --mix (default HELR)")
    p_load.add_argument("--distinct", type=int, default=4,
                        help="distinct machine points in the default mix")
    p_load.add_argument("--mix", metavar="FILE",
                        help="request-mix file to replay")
    p_load.add_argument("--duration", type=float, default=5.0)
    p_load.add_argument("--concurrency", type=int, default=16)
    p_load.add_argument("--connections", type=int, default=4)
    p_load.add_argument("--token", default=None,
                        help="tenant token for authenticated servers")
    p_load.add_argument("--deadline", type=float, default=None,
                        help="per-request deadline budget in seconds "
                             "(propagated to the server)")
    p_load.add_argument("--workers", type=int, default=2,
                        help="self-hosted server's pool size")
    p_load.add_argument("--admission", default="strict",
                        choices=("strict", "warn", "off"))
    p_load.add_argument("--save-mix", metavar="FILE",
                        help="save the server's observed mix afterwards")
    p_load.add_argument("--no-disk-cache", action="store_true")
    p_load.set_defaults(func=cmd_serve_load)
    p_analyze = sub.add_parser("analyze", help="traffic/AI analysis")
    p_analyze.add_argument("benchmark")
    p_analyze.add_argument("--sram-mb", type=int, default=32)
    p_analyze.add_argument("--stream-keys", action="store_true", default=True)
    p_analyze.add_argument("--onchip-keys", dest="stream_keys",
                           action="store_false")
    p_analyze.add_argument("--compress-keys", action="store_true")
    p_estimate = sub.add_parser(
        "estimate", help="any registered backend, any schedule set"
    )
    _add_machine_args(p_estimate, dataflow=False)
    p_estimate.add_argument("--backend", default="rpu",
                            help=f"one of {list_backends()}")
    p_estimate.add_argument("--schedule", default="all",
                            help="MP, DC, OC, SOLVER or 'all'")
    p_estimate.add_argument("--phases", action="store_true",
                            help="print the per-phase breakdown of "
                                 "workload programs (BOOT, RESNET_BOOT, "
                                 "HELR)")
    p_estimate.set_defaults(func=cmd_estimate)
    p_sched = sub.add_parser(
        "schedule",
        help="solve the best per-phase schedule for a workload",
    )
    p_sched.add_argument("workload",
                         help="benchmark (ARK) or workload program "
                              "(BOOT, RESNET_BOOT, HELR)")
    p_sched.add_argument("--explain", action="store_true",
                         help="print why each schedule was chosen, plus "
                              "the program-structure decisions")
    p_sched.add_argument("--traffic", action="store_true",
                         help="minimize DRAM traffic instead of latency")
    p_sched.add_argument("--bandwidth", type=float, default=64.0,
                         help="DRAM bandwidth in GB/s (latency objective)")
    p_sched.add_argument("--modops", type=float, default=1.0,
                         help="MODOPS throughput scale (latency objective)")
    p_sched.add_argument("--sram-mb", type=int, default=32,
                         help="on-chip data SRAM budget in MB")
    p_sched.add_argument("--stream-keys", action="store_true",
                         help="stream evaluation keys from DRAM")
    p_sched.add_argument("--compress-keys", action="store_true",
                         help="seed-compressed streamed keys")
    p_sched.set_defaults(func=cmd_schedule)
    for name, fn in (("simulate", cmd_simulate), ("trace", cmd_trace)):
        p = sub.add_parser(name, help=f"{name} one configuration")
        _add_machine_args(p)
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    if args.command == "info" or args.command is None:
        return cmd_info(args)
    if args.command == "analyze":
        return cmd_analyze(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
