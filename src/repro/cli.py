"""Command-line demo driver: ``python -m repro.cli`` or ``smartsouth``.

Examples::

    smartsouth snapshot --topology erdos_renyi --nodes 30 --root 0
    smartsouth critical --topology abilene
    smartsouth blackhole --topology grid --rows 4 --cols 5 --edge 7
    smartsouth anycast --topology ring --nodes 12 --members 5,9
    smartsouth priocast --topology ring --nodes 12 --members 5:10,9:20
    smartsouth table2 --nodes 40
    smartsouth rules --topology abilene --service snapshot
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.complexity import dfs_message_count, table2
from repro.core.runtime import SmartSouthRuntime
from repro.net.simulator import Network
from repro.net.topology import Topology, generators


def build_topology(args: argparse.Namespace) -> Topology:
    if getattr(args, "file", None):
        from repro.net.topofile import load

        return load(args.file)
    name = args.topology
    if name not in generators:
        raise SystemExit(f"unknown topology {name!r}; pick from {sorted(generators)}")
    gen = generators[name]
    if name in ("grid", "torus"):
        return gen(args.rows, args.cols)
    if name == "binary_tree":
        return gen(args.depth)
    if name == "fat_tree":
        return gen(args.k)
    if name == "abilene":
        return gen()
    if name == "erdos_renyi":
        return gen(args.nodes, args.p, seed=args.seed)
    if name == "barabasi_albert":
        return gen(args.nodes, args.m, seed=args.seed)
    if name == "waxman":
        return gen(args.nodes, seed=args.seed)
    return gen(args.nodes)


def _runtime(args: argparse.Namespace) -> tuple[SmartSouthRuntime, Network]:
    topo = build_topology(args)
    network = Network(topo, seed=args.seed)
    for pair in args.fail or []:
        u, v = (int(x) for x in pair.split("-"))
        network.fail_link(u, v)
    return SmartSouthRuntime(network, mode=args.mode), network


def cmd_snapshot(args: argparse.Namespace) -> int:
    runtime, network = _runtime(args)
    if args.chunk is not None:
        outcome = runtime.snapshot_chunked(args.root, max_records=args.chunk)
        if outcome is None:
            print("chunked snapshot failed (traversal died)")
            return 1
        nodes, links, stats = outcome
        print(f"chunked snapshot from node {args.root} "
              f"({runtime.mode} engine, <= {args.chunk} records/packet)")
        print(f"  nodes discovered : {len(nodes)}")
        print(f"  links discovered : {len(links)}")
        print(f"  chunks           : {stats['chunks']}")
        print(f"  in-band messages : {stats['in_band']}")
        print(f"  out-band messages: {stats['out_band']}")
        print(f"  matches live topology: {links == network.live_port_pairs()}")
        return 0
    outcome = runtime.snapshot(args.root)
    print(f"snapshot from node {args.root} ({runtime.mode} engine)")
    print(f"  nodes discovered : {len(outcome.nodes)}")
    print(f"  links discovered : {len(outcome.links)}")
    print(f"  in-band messages : {outcome.result.in_band_messages}")
    print(f"  out-band messages: {outcome.result.out_band_messages}")
    exact = outcome.links == network.live_port_pairs()
    print(f"  matches live topology: {exact}")
    return 0 if outcome.ok else 1


def cmd_loadaudit(args: argparse.Namespace) -> int:
    from repro.core.determinism import seeded_rng

    topo = build_topology(args)
    network = Network(topo, seed=args.seed)
    runtime = SmartSouthRuntime(network)  # interpreted-only feature
    monitor = runtime.load_monitor(tuple(int(m) for m in args.moduli.split(",")))
    rng = seeded_rng(args.seed)
    loads = {
        (edge.a.node, edge.a.port): rng.randrange(0, args.max_load)
        for edge in topo.edges()
    }
    monitor.send_traffic(loads)
    report = monitor.audit(args.root)
    truth = monitor.ground_truth()
    print(f"load audit from node {args.root} "
          f"(moduli {monitor.moduli}, range 0..{report.modulus_product - 1})")
    print(f"  ports audited    : {len(report.loads)}")
    print(f"  in-band messages : {report.in_band_messages}")
    print(f"  out-band messages: {report.out_band_messages}")
    print(f"  matches ground truth: {report.loads == truth}")
    top = sorted(report.loads.items(), key=lambda kv: -kv[1])[:5]
    for (node, port), load in top:
        print(f"    hottest: switch {node} port {port}: {load} packets")
    return 0 if report.loads == truth else 1


def cmd_critical(args: argparse.Namespace) -> int:
    runtime, network = _runtime(args)
    topo = network.topology
    critical = []
    for node in topo.nodes():
        if runtime.critical(node).critical:
            critical.append(node)
    print(f"critical nodes of {topo.name}: {critical or 'none'}")
    return 0


def cmd_anycast(args: argparse.Namespace) -> int:
    runtime, _network = _runtime(args)
    members = {int(x) for x in args.members.split(",")}
    result = runtime.anycast(args.root, gid=1, groups={1: members})
    print(f"anycast from {args.root} to group {sorted(members)}")
    print(f"  delivered at     : {result.delivered_at}")
    print(f"  in-band messages : {result.in_band_messages}")
    print(f"  out-band messages: {result.out_band_messages}")
    return 0 if result.delivered_at is not None else 1


def cmd_priocast(args: argparse.Namespace) -> int:
    runtime, _network = _runtime(args)
    priorities: dict[int, int] = {}
    for item in args.members.split(","):
        node, prio = item.split(":")
        priorities[int(node)] = int(prio)
    result = runtime.priocast(args.root, gid=1, priorities={1: priorities})
    print(f"priocast from {args.root} over {priorities}")
    print(f"  delivered at     : {result.delivered_at}")
    print(f"  in-band messages : {result.in_band_messages}")
    return 0 if result.delivered_at is not None else 1


def cmd_blackhole(args: argparse.Namespace) -> int:
    runtime, network = _runtime(args)
    if args.edge is not None:
        network.links[args.edge].set_blackhole()
        edge = network.topology.edge(args.edge)
        print(
            f"injected blackhole on edge {args.edge}: "
            f"({edge.a.node},{edge.a.port})-({edge.b.node},{edge.b.port})"
        )
    verdict = (
        runtime.detect_blackhole_ttl(args.root)
        if args.algorithm == "ttl"
        else runtime.detect_blackhole_smart(args.root)
    )
    print(f"blackhole detection ({args.algorithm}):")
    print(f"  found            : {verdict.found}")
    print(f"  location         : {verdict.location}")
    print(f"  far end          : {verdict.far_end}")
    print(f"  probes           : {verdict.probes}")
    print(f"  in-band messages : {verdict.in_band_messages}")
    print(f"  out-band messages: {verdict.out_band_messages}")
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    topo = build_topology(args)
    n, e = topo.num_nodes, topo.num_edges
    print(f"Table 2 bounds for {topo.name} (n={n}, |E|={e}, DFS={dfs_message_count(n, e)}):")
    header = f"{'service':24} {'out-band (paper)':18} {'out-band':9} {'in-band (paper)':16} {'in-band bound':13}"
    print(header)
    for row in table2():
        print(
            f"{row.service:24} {row.out_band_msgs:18} "
            f"{row.exact_out_band(n, e):9} {row.in_band_msgs:16} "
            f"{row.exact_in_band(n, e):13}"
        )
    return 0


def _service_registry():
    from repro.core.services import (
        AnycastService,
        BlackholeService,
        BlackholeTtlService,
        ChunkedSnapshotService,
        CriticalNodeService,
        PlainTraversalService,
        PriocastService,
        SnapshotService,
    )

    return {
        "plain": PlainTraversalService,
        "snapshot": SnapshotService,
        "snapshot_chunked": ChunkedSnapshotService,
        "anycast": AnycastService,
        "priocast": PriocastService,
        "blackhole": BlackholeService,
        "blackhole_ttl": BlackholeTtlService,
        "critical": CriticalNodeService,
    }


def _build_service(args: argparse.Namespace):
    services = _service_registry()
    if args.service not in services:
        raise SystemExit(f"unknown service; pick from {sorted(services)}")
    return services[args.service]()


def cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.verify import verify_engine
    from repro.core.engine import make_engine

    topo = build_topology(args)
    engine = make_engine(Network(topo), _build_service(args), "compiled")
    reports = verify_engine(engine)
    errors = [message for report in reports for message in report.errors]
    warnings = [message for report in reports for message in report.warnings]
    if getattr(args, "json", False):
        payload = {
            "service": args.service,
            "topology": topo.name,
            "rules": engine.total_rules(),
            "groups": engine.total_groups(),
            "switches": [
                {
                    "node": report.node,
                    "errors": report.errors,
                    "warnings": report.warnings,
                }
                for report in reports
            ],
            "summary": {"errors": len(errors), "warnings": len(warnings)},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"verified {args.service} on {topo.name}: "
              f"{engine.total_rules()} rules, {engine.total_groups()} groups, "
              f"{len(errors)} errors, {len(warnings)} warnings")
        for message in errors + warnings:
            print(f"  {message}")
    if errors:
        return 1
    return 2 if warnings else 0


def _disabled_ids(args: argparse.Namespace, registry) -> frozenset[str]:
    """The ``--disable`` ids, rejecting any *registry* does not hold (a
    typo would otherwise disable nothing without a word)."""
    disabled = frozenset(args.disable or [])
    unknown = sorted(disabled - set(registry))
    if unknown:
        raise SystemExit(
            f"unknown rule id(s) {', '.join(unknown)}; "
            f"pick from {sorted(registry)}"
        )
    return disabled


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.lint import (
        DEFAULT_WALK_BUDGET,
        LINT_RULES,
        LintConfig,
        lint_engine,
    )
    from repro.core.engine import make_engine

    disabled = _disabled_ids(args, LINT_RULES)
    topo = build_topology(args)
    engine = make_engine(Network(topo), _build_service(args), "compiled")
    config = LintConfig(
        disable=disabled,
        max_states=args.max_states or DEFAULT_WALK_BUDGET,
        roots=tuple(int(r) for r in args.roots.split(","))
        if args.roots
        else None,
    )
    report = lint_engine(engine, config=config)
    if getattr(args, "json", False):
        payload = report.to_json()
        payload["topology"] = topo.name
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"lint {args.service} on {topo.name}:")
        print(report.format_text())
    return report.exit_code


def _build_check_service(args: argparse.Namespace, topo: Topology):
    """Like :func:`_build_service`, but give the delivery services a
    non-vacuous default configuration: checking an anycast with no members
    proves nothing, so unless the registry default already has members the
    far end of the topology is enrolled (root 0's worst case)."""
    service = _build_service(args)
    last = max(topo.num_nodes - 1, 0)
    mid = topo.num_nodes // 2
    if service.name == "anycast" and not getattr(service, "groups", None):
        service.groups = {1: {last}}
    if service.name == "priocast" and not getattr(service, "priorities", None):
        service.priorities = {1: {mid: 10, last: 20}} if mid != last else {
            1: {last: 20}
        }
    return service


def cmd_check(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.modelcheck import INVARIANTS, CheckConfig, check_engine
    from repro.core.engine import make_engine

    disabled = _disabled_ids(args, INVARIANTS)
    topo = build_topology(args)
    service = _build_check_service(args, topo)
    engine = make_engine(Network(topo), service, "compiled")
    config = CheckConfig(
        max_failures=args.max_failures,
        max_triggers=args.max_triggers,
        depth=args.depth_limit,
        max_states=args.max_states or CheckConfig.max_states,
        disable=set(disabled),
        roots=tuple(int(r) for r in args.roots.split(","))
        if args.roots
        else None,
        crash=args.crash,
        switch_crash=args.switch_crash,
    )
    report = check_engine(engine, config)
    if getattr(args, "json", False):
        payload = json.loads(report.to_json())
        payload["topology"] = topo.name
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"check {args.service} on {topo.name}:")
        print(report.format_text(topo))
    return report.exit_code


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.net.chaos import (
        CONTROL_PROFILES,
        SWITCH_PROFILES,
        ChaosConfig,
        replay_run,
        run_campaign,
        run_control_campaign,
    )

    if args.replay is not None:
        if args.run is None:
            raise SystemExit("--replay needs --run <index>")
        with open(args.replay) as handle:
            report_dict = json.load(handle)
        try:
            record, mismatches = replay_run(report_dict, args.run)
        except ValueError as exc:
            raise SystemExit(str(exc))
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        if mismatches:
            print(f"replay DIVERGED from {args.replay} run {args.run}:")
            for line in mismatches:
                print(f"  {line}")
            return 1
        print(f"replay of {args.replay} run {args.run} matched the record")
        return 0

    profiles = tuple(args.profiles.split(","))
    if args.control:
        profiles = CONTROL_PROFILES
    if args.switch:
        profiles = SWITCH_PROFILES
    config = ChaosConfig(
        runs=args.runs,
        seed=args.seed,
        services=tuple(args.services.split(",")),
        topologies=tuple(args.topologies.split(",")),
        profiles=profiles,
        max_attempts=args.max_attempts,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise SystemExit(str(exc))
    report = (run_control_campaign if args.control else run_campaign)(config)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(report.to_json() + "\n")
    if getattr(args, "json", False):
        print(report.to_json())
    else:
        print(report.format_summary())
        if args.json_out:
            print(f"report written to {args.json_out}")
    return 0 if report.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    runtime, network = _runtime(args)
    outcome = runtime.snapshot(args.root)
    print(f"traversal trace of a snapshot from node {args.root} "
          f"({outcome.result.in_band_messages} hops):")
    print(network.trace.format_hops(limit=args.limit))
    return 0 if outcome.ok else 1


def cmd_rules(args: argparse.Namespace) -> int:
    from repro.core.engine import CompiledEngine, make_engine

    services = _service_registry()
    if args.service not in services:
        raise SystemExit(f"unknown service; pick from {sorted(services)}")
    topo = build_topology(args)
    network = Network(topo)
    engine = make_engine(network, services[args.service](), "compiled")
    assert isinstance(engine, CompiledEngine)
    engine.install()
    print(
        f"{args.service} on {topo.name}: "
        f"{engine.total_rules()} rules, {engine.total_groups()} groups "
        f"across {topo.num_nodes} switches"
    )
    if args.dump is not None:
        print(engine.switches[args.dump].describe())
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartsouth",
        description="SmartSouth: in-band OpenFlow data-plane functions "
        "(HotNets 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--topology", default="erdos_renyi")
        p.add_argument("--file", default=None,
                       help="load the topology from an edge-list file instead")
        p.add_argument("--nodes", type=int, default=20)
        p.add_argument("--p", type=float, default=0.2)
        p.add_argument("--m", type=int, default=2)
        p.add_argument("--rows", type=int, default=4)
        p.add_argument("--cols", type=int, default=4)
        p.add_argument("--depth", type=int, default=3)
        p.add_argument("--k", type=int, default=4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--root", type=int, default=0)
        p.add_argument("--mode", choices=("interpreted", "compiled"), default="compiled")
        p.add_argument(
            "--fail", action="append", metavar="U-V",
            help="fail the link between nodes U and V (repeatable)",
        )

    p = sub.add_parser("snapshot", help="collect the live topology in-band")
    common(p)
    p.add_argument(
        "--chunk", type=int, default=None,
        help="split the snapshot into packets of at most this many records",
    )
    p.set_defaults(fn=cmd_snapshot)

    p = sub.add_parser("loadaudit", help="infer per-link loads from counters")
    common(p)
    p.add_argument("--moduli", default="5,7,11")
    p.add_argument("--max-load", type=int, default=300, dest="max_load")
    p.set_defaults(fn=cmd_loadaudit)

    p = sub.add_parser("critical", help="find all critical (articulation) nodes")
    common(p)
    p.set_defaults(fn=cmd_critical)

    p = sub.add_parser("anycast", help="deliver to any group member")
    common(p)
    p.add_argument("--members", default="1", help="comma-separated node ids")
    p.set_defaults(fn=cmd_anycast)

    p = sub.add_parser("priocast", help="deliver to the best group member")
    common(p)
    p.add_argument("--members", default="1:10", help="node:prio,node:prio,...")
    p.set_defaults(fn=cmd_priocast)

    p = sub.add_parser("blackhole", help="detect a silent packet-dropping link")
    common(p)
    p.add_argument("--edge", type=int, default=None, help="edge id to blackhole")
    p.add_argument("--algorithm", choices=("smart", "ttl"), default="smart")
    p.set_defaults(fn=cmd_blackhole)

    p = sub.add_parser("table2", help="print the Table 2 complexity bounds")
    common(p)
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("rules", help="compiled rule/group counts per service")
    common(p)
    p.add_argument("--service", default="snapshot")
    p.add_argument("--dump", type=int, default=None, help="dump one switch")
    p.set_defaults(fn=cmd_rules)

    p = sub.add_parser("verify", help="statically verify a compiled service")
    common(p)
    p.add_argument("--service", default="snapshot")
    p.add_argument("--json", action="store_true",
                   help="emit per-switch findings as JSON")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "lint",
        help="symbolic lint: dead/shadow rules, coverage, sweep proof",
    )
    common(p)
    p.add_argument("--service", default="snapshot")
    p.add_argument("--json", action="store_true",
                   help="emit findings as JSON")
    p.add_argument(
        "--disable", action="append", metavar="RULE",
        help="disable a lint rule id, e.g. SS001 (repeatable)",
    )
    p.add_argument(
        "--max-states", type=int, default=None, dest="max_states",
        help="symbolic state budget per network walk",
    )
    p.add_argument(
        "--roots", default=None,
        help="comma-separated roots to walk from (default: every node)",
    )
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "check",
        help="stateful model check: failure interleavings, counterexamples",
    )
    common(p)
    p.add_argument("--service", default="snapshot")
    p.add_argument("--json", action="store_true",
                   help="emit counterexamples as JSON")
    p.add_argument(
        "--max-failures", type=int, default=1, dest="max_failures",
        help="link-failure budget per run (blackhole services: number of "
        "simultaneous blackholed links to enumerate)",
    )
    p.add_argument(
        "--max-triggers", type=int, default=1, dest="max_triggers",
        help="concurrent copies of the first trigger to interleave",
    )
    p.add_argument(
        "--max-depth", type=int, default=None, dest="depth_limit",
        help="bound the exploration depth (default: run to quiescence)",
    )
    p.add_argument(
        "--max-states", type=int, default=None, dest="max_states",
        help="global-state budget per scenario",
    )
    p.add_argument(
        "--disable", action="append", metavar="INV",
        help="disable an invariant id, e.g. MC004 (repeatable)",
    )
    p.add_argument(
        "--roots", default=None,
        help="comma-separated roots to check from (default: 0)",
    )
    p.add_argument(
        "--crash", action="store_true",
        help="also explore controller crash/recovery scenarios (MC010: "
        "no stale epoch may be accepted across the resync boundary)",
    )
    p.add_argument(
        "--switch-crash", action="store_true", dest="switch_crash",
        help="also explore switch crash/reboot scenarios (MC011: a "
        "crashed switch may under-claim, never fabricate a result)",
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "chaos",
        help="seeded fault campaign over the supervised runtime",
    )
    p.add_argument("--runs", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--services", default=",".join(
            ("snapshot", "anycast", "blackhole", "critical")
        ),
        help="comma-separated services to exercise",
    )
    p.add_argument(
        "--topologies", default="torus3x3,complete5",
        help="comma-separated topology names",
    )
    p.add_argument(
        "--profiles", default="lossy,partition,blackhole",
        help="comma-separated fault profiles",
    )
    p.add_argument(
        "--control", action="store_true",
        help="control-plane campaign: ctrl-* profiles plus the "
             "full-outage liveness preflight (overrides --profiles)",
    )
    p.add_argument(
        "--switch", action="store_true",
        help="switch-plane campaign: sw-crash/sw-flap/table-pressure "
             "profiles with the switch-recovery oracle (overrides "
             "--profiles)",
    )
    p.add_argument(
        "--max-attempts", type=int, default=6, dest="max_attempts",
        help="supervisor retry budget per call",
    )
    p.add_argument(
        "--replay", default=None, metavar="REPORT.json",
        help="re-run one recorded run from a campaign report and "
             "byte-compare it against the record (needs --run)",
    )
    p.add_argument(
        "--run", type=int, default=None,
        help="run_id to replay from the --replay report",
    )
    p.add_argument("--json", action="store_true",
                   help="print the full campaign report as JSON")
    p.add_argument(
        "--json-out", default=None, dest="json_out",
        help="also write the campaign report JSON to this file",
    )
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("trace", help="print a traversal's hop-by-hop trace")
    common(p)
    p.add_argument("--limit", type=int, default=40)
    p.set_defaults(fn=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
