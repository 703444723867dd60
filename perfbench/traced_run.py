"""One traced in-process scenario run: per-layer times and work counts.

Usage: python perfbench/traced_run.py SCENARIO OUTPUT_DIR SPANS_JSON

Loads and runs the scenario through ``nearlink.scenario`` with timing spans
wrapped around the public functions ``run_scenario`` reaches, writes the
spans to SPANS_JSON and prints the per-layer numbers as one JSON line. The
program's package must be importable (the benchmark sets ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import os
import sys

from tracing import Tracer, duration, self_time


def _entries(args, result):
    return {"entries": int(result.entries.size)}


def _sweep_products(args, result):
    return {"products": int(args["layout"].n_elements * result.gain_dbi.size)}


def _scan_products(args, result):
    return {"products": int(len(args["positions"]) * args["objective"].n_scan)}


def _bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def install(tracer):
    """Wrap each layer's public entry points that ``run_scenario`` reaches."""
    from nearlink import beamforming, mimo, placement, scenario

    table = [
        (scenario, "build_ground_layout", "geometry.ground_build", None),
        (scenario, "channel_matrix", "channel.matrix", _entries),
        (mimo, "singular_values", "mimo.spectrum", None),
        (beamforming, "delay_and_sum_weights", "beamforming.weights", None),
        (beamforming, "gain_pattern_sweep", "beamforming.sweep", _sweep_products),
        (beamforming, "evaluate_gain", "beamforming.evaluate", None),
        (placement, "optimize_placement", "placement.search", None),
        (placement, "random_panel_positions", "placement.draw", None),
        (placement, "peak_sidelobe", "placement.score", _scan_products),
        (beamforming, "write_gain_csv", "fileio.write", _bytes),
        (mimo, "write_spectrum_csv", "fileio.write", _bytes),
        (placement, "write_placement_json", "fileio.write", _bytes),
        (scenario, "save_layout", "fileio.write", _bytes),
    ]
    for module, attr, name, count in table:
        tracer.wrap(module, attr, name, count)


def layer_metrics(spans):
    """Per-layer totals from a finished trace; idle layers read zero."""

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(duration(s) for s in of(name))

    def own(name):
        return sum(self_time(s, spans) for s in of(name))

    def count(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in of(name))

    def rate(work, seconds):
        return work / seconds if seconds > 0.0 else 0.0

    m = {
        "scenario.load_s": total("scenario.load"),
        "scenario.run_s": total("scenario.run"),
        "scenario.self_s": own("scenario.run"),
        "geometry.ground_build_s": total("geometry.ground_build"),
        "beamforming.weights_s": total("beamforming.weights"),
        "beamforming.sweep_s": total("beamforming.sweep"),
        "beamforming.evaluate_s": total("beamforming.evaluate"),
        "beamforming.products": count("beamforming.sweep", "products"),
        "channel.matrix_s": total("channel.matrix"),
        "channel.calls": len(of("channel.matrix")),
        "channel.entries": count("channel.matrix", "entries"),
        "mimo.spectrum_s": total("mimo.spectrum"),
        "mimo.calls": len(of("mimo.spectrum")),
        "placement.score_s": total("placement.score"),
        "placement.score_calls": len(of("placement.score")),
        "placement.draw_s": total("placement.draw"),
        "placement.self_s": own("placement.search"),
        "fileio.write_s": total("fileio.write"),
        "fileio.bytes": count("fileio.write", "bytes"),
        "trace.overhead_s": sum(s["overhead"] for s in spans if "overhead" in s),
    }
    m["beamforming.products_per_s"] = rate(m["beamforming.products"], m["beamforming.sweep_s"])
    m["channel.entries_per_s"] = rate(m["channel.entries"], m["channel.matrix_s"])
    m["placement.products_per_s"] = rate(
        count("placement.score", "products"), m["placement.score_s"]
    )
    return m


def main(argv):
    scenario_path, output_dir, spans_path = argv
    from nearlink import scenario

    tracer = Tracer()
    install(tracer)
    try:
        with tracer.span("scenario.load"):
            s = scenario.load_scenario(scenario_path)
        with tracer.span("scenario.run"):
            scenario.run_scenario(s, output_dir=output_dir)
    finally:
        tracer.restore()
    tracer.dump(spans_path)
    print(json.dumps({"unmeasured": tracer.unmeasured, "metrics": layer_metrics(tracer.spans)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
