"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names (``bench/test_bench.py`` checks
the two agree); ``--calibrate`` rewrites only the bounds there.  A
per-layer metric's layer is the prefix of its name — the packages under
``src/repro``.
"""

from __future__ import annotations

#: (name, unit, better, bound) — the bound is the share of the parent's
#: median by which the metric may worsen.  The three counts repeat
#: exactly for a seed; their bound only has to cover seed-to-seed spread.
END_TO_END = (
    ("coins_per_s", "coins/s", "higher", 0.10),
    ("coin_latency_ms_p50", "ms", "lower", 0.10),
    ("regen_stall_ms_p50", "ms", "lower", 0.15),
    ("messages_per_coin", "count", "lower", 0.03),
    ("bits_per_coin", "count", "lower", 0.03),
    ("rounds_per_coin", "count", "lower", 0.03),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)


def _fields():
    rows = []
    for suffix in ("", ".python", ".numpy"):
        rows.append((f"fields.mul_ns{suffix}", "ns", "lower"))
        rows.append((f"fields.inv_ns{suffix}", "ns", "lower"))
        for width in ("wn", "wM"):
            for op in ("mul_many", "dot", "batch_inv"):
                rows.append(
                    (f"fields.{op}_ns_per_elem.{width}{suffix}", "ns", "lower")
                )
    return tuple(rows)


#: (name, unit, better)
PER_LAYER = (
    ("core.stretch_ms_p50", "ms", "lower"),
    ("core.stretch_share", "ratio", "lower"),
    ("core.expose_ms_p50", "ms", "lower"),
    ("core.expose_share", "ratio", "lower"),
    ("core.toss_self_share", "ratio", "lower"),
    ("core.self_share", "ratio", "lower"),
    ("core.stretches", "count", "lower"),
    ("core.iterations_per_stretch", "count", "lower"),
    ("core.seed_coins_per_stretch", "count", "lower"),
    ("core.toss_ms_p99", "ms", "lower"),
    ("core.coins_per_s_mean", "coins/s", "higher"),
    ("net.run_share", "ratio", "lower"),
    ("net.runs_per_coin", "count", "lower"),
    ("net.deliveries_per_coin", "count", "lower"),
    ("net.lockstep_deliveries_per_s", "1/s", "higher"),
    ("net.async_deliveries_per_s", "1/s", "higher"),
    ("net.est_share", "ratio", "lower"),
    ("protocols.coin_gen_ms", "ms", "lower"),
    ("protocols.bit_gen_ms", "ms", "lower"),
    ("protocols.batch_vss_ms", "ms", "lower"),
    ("protocols.gradecast_ms", "ms", "lower"),
    ("protocols.phase_king_ms", "ms", "lower"),
    ("protocols.coin_expose_ms", "ms", "lower"),
    ("protocols.async_coin_ms", "ms", "lower"),
    ("protocols.coin_gen_rounds", "count", "lower"),
    ("protocols.coin_gen_interpolations", "count", "lower"),
    ("poly.interpolate_us", "us", "lower"),
    ("poly.interpolate_cached_us", "us", "lower"),
    ("poly.interpolate_cold_us", "us", "lower"),
    ("poly.bw_clean_us", "us", "lower"),
    ("poly.bw_errors_us", "us", "lower"),
    ("poly.horner_batch_us", "us", "lower"),
    ("poly.interpolations_per_coin", "count", "lower"),
    ("poly.cache_hit_ratio", "ratio", "higher"),
    ("poly.est_share", "ratio", "lower"),
    ("sharing.share_us", "us", "lower"),
    ("sharing.reconstruct_us", "us", "lower"),
    *_fields(),
    ("fields.adds_per_coin", "count", "lower"),
    ("fields.muls_per_coin", "count", "lower"),
    ("fields.invs_per_coin", "count", "lower"),
    ("fields.est_share", "ratio", "lower"),
    ("obs.lit_over_dark", "ratio", "lower"),
    ("obs.spans_per_coin", "count", "lower"),
    ("obs.events_per_coin", "count", "lower"),
    ("obs.flight_bytes_per_coin", "count", "lower"),
    ("ladder.explained_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def with_units(values: dict) -> dict:
    """``{name: value}`` -> ``{name: {"value": value, "unit": unit}}``."""
    return {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in values.items()
    }
