"""The ladder: per-layer metrics from the traced pass, and its report.

What the spans can see is measured: ``toss`` -> ``core.stretch`` /
``core.expose`` -> ``net.run``.  What lies below ``net.run`` is
estimated, rung time x exact count of the traced pass: one level down
as whole protocols (one Coin-Gen per stretch, one Coin-Expose per
exposure), and at the bottom from leaves that do not overlap — the
delivery loop (deliveries / null ping rate), the decodes (interpolations
x one clean Berlekamp-Welch), and the field work outside the decodes
(multiplications at the dealing-sweep rate, inversions).
``ladder.explained_ratio`` is the strict one: measured self time plus
the bottom leaves, over the coin's wall.  The simulator runs all n
players in one process, so a coin's wall is the *sum* of the players'
work and the estimates use totals over players; the ``fields.*_per_coin``
counts are the busiest player's, the unit the paper's lemmas price.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.net.metrics import NetworkMetrics

from bench.measure import Pass

#: ROADMAP item 1: child rungs must explain this much of their parent
EXPLAINED_FLOOR = 0.9


def _p50_ms(row) -> float:
    return 1e3 * statistics.median(row["durations"]) if row["durations"] else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    untraced: Pass,
    traced: Pass,
    summary: Dict[str, dict],
    rungs: Dict[str, float],
    obs: Dict[str, float],
) -> Tuple[Dict[str, float], List[str]]:
    """Every per-layer metric, and the ladder report as lines of text."""
    spec = traced.spec
    window = traced.window
    coins = window["coins"]
    toss, net = summary["toss"], summary["net.run"]
    stretch, expose = summary["core.stretch"], summary["core.expose"]
    wall = toss["total"]
    coin_wall = wall / coins
    work = NetworkMetrics(player_ops=window["ops"])
    busy, ops = work.max_player_ops(), work.total_ops()
    stretches = window["stretches"]

    out = {name: value for name, value in rungs.items() if name[0] != "_"}
    out.update(obs)
    out.update({
        "core.stretch_ms_p50": _p50_ms(stretch),
        "core.stretch_share": stretch["total"] / wall,
        "core.expose_ms_p50": _p50_ms(expose),
        "core.expose_share": expose["total"] / wall,
        "core.toss_self_share": toss["self"] / wall,
        "core.self_share":
            (toss["self"] + stretch["self"] + expose["self"]) / wall,
        "core.stretches": float(stretches),
        "core.iterations_per_stretch": _ratio(window["iterations"], stretches),
        "core.seed_coins_per_stretch": _ratio(window["seed_coins"], stretches),
        "core.toss_ms_p99":
            1e3 * statistics.quantiles(untraced.latencies, n=100)[98],
        "core.coins_per_s_mean":
            untraced.window["coins"] / untraced.window["wall"],
        "net.run_share": net["total"] / wall,
        "net.runs_per_coin": net["count"] / coins,
        "net.deliveries_per_coin": window["deliveries"] / coins,
        "poly.interpolations_per_coin": ops.interpolations / coins,
        "poly.cache_hit_ratio": _ratio(
            window["cache_hits"],
            window["cache_hits"] + window["cache_misses"],
        ),
        "fields.adds_per_coin": busy.adds / coins,
        "fields.muls_per_coin": busy.muls / coins,
        "fields.invs_per_coin": busy.invs / coins,
        "trace.overhead_ratio": window["wall"] / untraced.window["wall"],
    })

    # -- rung x count estimates of what net.run hides -----------------------
    # one level down, whole protocols: each stretch is one Coin-Gen, each
    # exposure one Coin-Expose (async: the root already is the protocol)
    protocol_s = 1e-3 * (
        rungs["protocols.coin_gen_ms"] * stretch["count"]
        + rungs["protocols.coin_expose_ms"] * expose["count"]
    )
    # bottom level, leaves that do not overlap
    rate = rungs[
        "net.async_deliveries_per_s" if spec.is_async
        else "net.lockstep_deliveries_per_s"
    ]
    delivery_s = window["deliveries"] / rate
    decode_s = 1e-6 * rungs["poly.bw_clean_us"] * ops.interpolations
    other_muls = max(0.0, ops.muls - rungs["_decode_muls"] * ops.interpolations)
    # outside the decodes, multiplications come from the dealing sweeps
    field_s = 1e-9 * (
        other_muls * rungs["fields.mul_many_ns_per_elem.wM"]
        + ops.invs * rungs["fields.inv_ns"]
    )
    below = delivery_s + decode_s + field_s
    out["net.est_share"] = delivery_s / wall
    out["poly.est_share"] = decode_s / wall
    out["fields.est_share"] = field_s / wall
    out["ladder.explained_ratio"] = (wall - net["total"] + below) / wall

    # -- the report ---------------------------------------------------------
    def pct(seconds):
        return f"{100 * seconds / wall:5.1f}%"

    def explained(children, parent, what="children"):
        ratio = _ratio(children, parent)
        mark = "" if ratio >= EXPLAINED_FLOOR else "  (!) below 0.9"
        return f"{what} explain {ratio:.2f}{mark}"

    lines = [
        f"ladder {spec.name}: {len(traced.blocks)} blocks, {coins} coins, "
        f"{wall:.3f} s in toss, {1e3 * coin_wall:.4f} ms per coin",
        f"toss                {pct(wall)}  " + explained(
            net["total"] if spec.is_async
            else stretch["total"] + expose["total"], wall),
        f"  self              {pct(toss['self'])}",
    ]
    for label, row in (("core.stretch", stretch), ("core.expose", expose)):
        if not row["count"]:
            continue
        inner = summary[f"net.run<{label}"]
        lines += [
            f"  {label:<17} {pct(row['total'])}  p50 {_p50_ms(row):.3f} ms "
            f"x {row['count']}  " + explained(inner["total"], row["total"]),
            f"    self            {pct(row['self'])}",
            f"    net.run         {pct(inner['total'])}",
        ]
    lines.append(f"net.run             {pct(net['total'])}  x {net['count']}")
    if not spec.is_async:
        lines.append(
            f"  est. protocols    {pct(protocol_s)}  "
            f"{stretch['count']} Coin-Gen at "
            f"{rungs['protocols.coin_gen_ms']:.2f} ms + {expose['count']} "
            f"Coin-Expose at {rungs['protocols.coin_expose_ms']:.3f} ms  "
            + explained(protocol_s, net["total"], "rungs")
        )
    lines += [
        f"  est. delivery     {pct(delivery_s)}  "
        f"{window['deliveries'] / coins:.1f} deliveries/coin at {rate:,.0f}/s",
        f"  est. poly         {pct(decode_s)}  "
        f"{ops.interpolations / coins:.2f} decodes/coin at "
        f"{rungs['poly.bw_clean_us']:.1f} us",
        f"  est. fields       {pct(field_s)}  "
        f"{other_muls / coins:.0f} muls/coin outside decodes at "
        f"{rungs['fields.mul_many_ns_per_elem.wM']:.0f} ns, "
        f"{ops.invs / coins:.2f} invs/coin at "
        f"{1e-3 * rungs['fields.inv_ns']:.1f} us",
        "  delivery + poly + fields  "
        + explained(below, net["total"], "estimates"),
        f"ladder.explained_ratio {out['ladder.explained_ratio']:.3f}"
        + ("" if out["ladder.explained_ratio"] >= EXPLAINED_FLOOR
           else "  (!) below 0.9: the protocol code inside the program "
                "steps cannot be seen from outside"),
        f"trace.overhead_ratio   {out['trace.overhead_ratio']:.3f}",
    ]
    return out, lines
