"""Ablation (§5.1.2) — the x2 live-time scaling heuristic.

The paper picks "declare dead at twice the previous live time" from the
ratio CDF of Figure 15 (~80% of live times below 2x the previous).
Sweeping the scale shows the tradeoff: x1 predicts death too eagerly
(early displacement of live blocks), large scales delay prefetches.
"""

from repro.common.config import paper_machine
from repro.analysis.report import format_table
from repro.core.prefetch.timekeeping import TimekeepingPrefetchPolicy
from repro.core.predictors.deadblock import livetime_scale_curve
from repro.sim.sweep import run_workload

from conftest import LENGTH, WARMUP, write_figure

SCALES = [1, 2, 4, 8]


def test_ablation_livetime_scale(benchmark):
    def build():
        configs = {"base": {"collect_metrics": True}}
        for scale in SCALES:
            policy = TimekeepingPrefetchPolicy(
                paper_machine().l1d, live_time_scale=scale
            )
            configs[f"x{scale}"] = {"prefetch_policy": policy}
        return run_workload("ammp", configs, length=LENGTH, warmup=WARMUP)

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    base = results["base"]
    rows = []
    for scale in SCALES:
        r = results[f"x{scale}"]
        counts = r.prefetch.timeliness
        rows.append([
            f"x{scale}", f"{r.speedup_over(base):+.1%}",
            f"{r.prefetch.address_accuracy:.0%}",
            counts.total_correct, counts.total_wrong,
        ])
    text = format_table(
        ["live-time scale", "IPC gain", "addr accuracy", "correct", "wrong"],
        rows,
        title="Ablation — dead-block scale heuristic sweep (ammp)",
    )
    # Offline predictor view of the same knob (accuracy/coverage).
    curve = livetime_scale_curve(base.metrics.generation_columns, [1.0, 2.0, 4.0, 8.0])
    text += "\n\n" + format_table(
        ["scale", "dead-block accuracy", "coverage"],
        [[f"x{s:.0f}", a, c] for s, a, c in curve],
        title="Offline live-time dead-block predictor at each scale",
    )
    write_figure("ablation_livetime_scale", text)

    # The paper's x2 point performs within reach of the sweep's best.
    gains = {s: results[f"x{s}"].speedup_over(base) for s in SCALES}
    assert gains[2] >= max(gains.values()) - 0.1
    # Offline: accuracy never decreases with scale; coverage never grows.
    accuracies = [a for _, a, _ in curve]
    coverages = [c for _, _, c in curve]
    assert accuracies == sorted(accuracies)
    assert coverages == sorted(coverages, reverse=True)
