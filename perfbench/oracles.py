"""Independent numpy checks of the program's output files.

Nothing here imports the program under test. Each check rebuilds the physics
from the scenario mapping the benchmark generated (see ``workloads``) and
compares it with what the CLI wrote. Every check returns
``(problems, facts)``: a list of failure messages, empty when the output is
correct, and a dict of measured facts worth reporting.
"""

from __future__ import annotations

import json
import os

import numpy as np

from workloads import WAVELENGTH_M, draw_centres

K = 2.0 * np.pi / WAVELENGTH_M

# |response| is compared as a fraction of the matched peak N. The bound admits
# a fast near-field kernel at its stated 2.3e-8 and is far below any real
# error in phase or geometry.
AMPLITUDE_TOL = 1e-6
FOCUS_GAIN_TOL_DB = 0.01
SIGMA_MAX_RTOL = 1e-9
SIDELOBE_TOL_DB = 1e-6
# Map points per exact-sum batch: bounds the oracle's memory.
MAP_CHUNK = 64


def read_table(path):
    """Header names and float rows of a ``#``-commented CSV file."""
    with open(path) as handle:
        lines = [ln for ln in handle.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows.reshape(-1, len(header))


def ground_elements(doc):
    """Element positions of the generated ground section, panel by panel."""
    panel = doc["ground"]["panel"]
    n_r, n_c = panel["rows"], panel["cols"]
    pitch = panel["spacing_wavelengths"] * WAVELENGTH_M
    ii, jj = np.meshgrid(np.arange(n_r), np.arange(n_c), indexing="ij")
    off = np.zeros((n_r * n_c, 3))
    off[:, 0] = (jj.ravel() - (n_c - 1) / 2.0) * pitch
    off[:, 1] = (ii.ravel() - (n_r - 1) / 2.0) * pitch
    centres = np.asarray(doc["ground"]["positions_m"], dtype=np.float64)
    return (centres[:, None, :] + off[None, :, :]).reshape(-1, 3)


def _axis(start, stop, n, spacing):
    return np.geomspace(start, stop, n) if spacing == "log" else np.linspace(start, stop, n)


def _direction(theta, phi=0.0):
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


def _close(a, b, rtol):
    return np.allclose(a, b, rtol=rtol, atol=0.0)


def check_beam_map(doc, outdir, scalars):
    """Matched gain at focus and every map point."""
    problems = []
    ana, sat = doc["analysis"], doc["satellite"]
    elems = ground_elements(doc)
    n = len(elems)
    gain0 = doc["ground"]["panel"]["element_gain_dbi"]
    steer = np.deg2rad(sat["off_nadir_deg"])
    focus = sat["range_m"] * _direction(steer)

    expected = 10.0 * np.log10(n) + gain0
    got = scalars.get("gain_at_focus_dbi")
    if got is None or abs(got - expected) > FOCUS_GAIN_TOL_DB:
        problems.append(f"gain_at_focus_dbi={got}, expected {expected} within {FOCUS_GAIN_TOL_DB} dB")

    header, rows = read_table(os.path.join(outdir, "gain_map.csv"))
    if header != ["theta_rad", "range_m", "gain_dbi"]:
        return problems + [f"gain_map.csv header {header}"], {}
    hw = np.deg2rad(ana["halfwidth_deg"])
    thetas = np.linspace(steer - hw, steer + hw, ana["n_theta"])
    ranges = _axis(ana["range_start_m"], ana["range_stop_m"], ana["n_ranges"], ana["spacing"])
    want = np.stack(np.meshgrid(thetas, ranges, indexing="ij"), axis=-1).reshape(-1, 2)
    if rows.shape != (len(want), 3) or not _close(rows[:, :2], want, 1e-12):
        return problems + ["gain_map.csv grid does not match the scenario axes"], {}

    # Every map point against the exact sum, a chunk of points at a time.
    d_focus = np.linalg.norm(elems - focus, axis=1)
    err = 0.0
    for start in range(0, len(rows), MAP_CHUNK):
        chunk = rows[start : start + MAP_CHUNK]
        pts = chunk[:, 1:2] * _direction(chunk[:, 0])
        d_pts = np.linalg.norm(elems[None, :, :] - pts[:, None, :], axis=2)
        exact = np.abs(np.exp(1j * K * (d_focus[None, :] - d_pts)).sum(axis=1))
        reported = np.sqrt(n * 10.0 ** ((chunk[:, 2] - gain0) / 10.0))
        err = max(err, float(np.max(np.abs(reported - exact)) / n))
    if err > AMPLITUDE_TOL:
        problems.append(f"map amplitude error {err:.3g} of N exceeds {AMPLITUDE_TOL}")
    return problems, {"map_amplitude_err_max": err}


def satellite_elements(doc, r):
    """Satellite elements at range ``r`` on boresight (the sweep's off-nadir is 0)."""
    pos = np.zeros((len(doc["satellite"]["positions_m"]), 3))
    pos[:, :2] = doc["satellite"]["positions_m"]
    return pos - pos.mean(axis=0) + np.array([0.0, 0.0, r])


def svd_spectrum(doc, elems, r):
    sat = satellite_elements(doc, r)
    d = np.linalg.norm(sat[:, None, :] - elems[None, :, :], axis=2)
    return np.linalg.svd(np.exp(-1j * K * d), compute_uv=False)


def check_dof_sweep(doc, outdir, scalars):
    """DoF and sigma_max at every range against a LAPACK SVD.

    The ratio column is not a pass/fail check: its worst relative error is
    reported as a fact, because the Gram-matrix spectrum loses the smallest
    singular values of a far-field link.
    """
    problems = []
    ana = doc["analysis"]
    tau = ana["tau"]
    elems = ground_elements(doc)
    header, rows = read_table(os.path.join(outdir, "spectrum.csv"))
    k = len(doc["satellite"]["positions_m"])
    want_header = ["r_meters"] + [f"sigma_{i}" for i in range(k)] + ["ratio", "dof"]
    if header != want_header:
        return [f"spectrum.csv header {header}"], {}
    ranges = _axis(ana["range_start_m"], ana["range_stop_m"], ana["n_ranges"], ana["spacing"])
    if rows.shape[0] != len(ranges) or not _close(rows[:, 0], ranges, 1e-12):
        return ["spectrum.csv ranges do not match the scenario axis"], {}

    ratio_err = 0.0
    for row in rows:
        sv = svd_spectrum(doc, elems, row[0])
        dof = int(np.sum(sv >= tau * sv[0]))
        if int(row[-1]) != dof:
            problems.append(f"r={row[0]}: dof {int(row[-1])}, SVD gives {dof}")
        if not _close(row[1], sv[0], SIGMA_MAX_RTOL):
            problems.append(f"r={row[0]}: sigma_max {row[1]}, SVD gives {sv[0]}")
        ratio_err = max(ratio_err, abs(row[-2] - sv[-1] / sv[0]) / (sv[-1] / sv[0]))

    sv = svd_spectrum(doc, elems, doc["satellite"]["range_m"])
    dof_ref = float(np.sum(sv >= tau * sv[0]))
    if scalars.get("dof_at_reference_range") != dof_ref:
        problems.append(
            f"dof_at_reference_range={scalars.get('dof_at_reference_range')}, SVD gives {dof_ref}"
        )
    return problems, {"ratio_rel_err_max": float(ratio_err)}


def exclusion_halfwidth(ana):
    """Twice the filled-aperture null halfwidth along the scan azimuth."""
    phi = ana["steer_phi_rad"]
    along = ana["aperture_x_m"] * abs(np.cos(phi)) + ana["aperture_y_m"] * abs(np.sin(phi))
    return 2.0 * WAVELENGTH_M / along


def sidelobe_db(ana, positions):
    """Worst sidelobe of each placement in a stack of shape (..., k, 3)."""
    th0, phi = ana["steer_theta_rad"], ana["steer_phi_rad"]
    hw = ana["scan_halfwidth_rad"]
    thetas = np.linspace(th0 - hw, th0 + hw, ana["n_scan"])
    thetas = thetas[np.abs(thetas - th0) > exclusion_halfwidth(ana)]
    rel = _direction(thetas, phi) - _direction(np.array(th0), phi)
    pos = np.asarray(positions)
    phase = K * np.einsum("sc,...kc->...sk", rel, pos)
    peak = np.abs(np.exp(1j * phase).sum(axis=-1)).max(axis=-1)
    return 20.0 * np.log10(peak / pos.shape[-2])


def candidate(ana, child_seed):
    """Candidate drawn from one child seed, as the search defines it."""
    rng = np.random.default_rng(int(child_seed))
    return np.asarray(
        draw_centres(
            rng, ana["aperture_x_m"], ana["aperture_y_m"], ana["n_panels"], ana["min_spacing_m"]
        )
    )


def check_placement(doc, outdir, scalars):
    """Feasible winner, reproducible score, and argmin over all candidates."""
    problems = []
    ana = doc["analysis"]
    with open(os.path.join(outdir, "placement.json")) as handle:
        res = json.load(handle)
    pos = np.asarray(res["positions_m"], dtype=np.float64)
    hx, hy = ana["aperture_x_m"] / 2.0, ana["aperture_y_m"] / 2.0
    if pos.shape != (ana["n_panels"], 3):
        return [f"placement has shape {pos.shape}"], {}
    if (np.abs(pos[:, 0]) > hx).any() or (np.abs(pos[:, 1]) > hy).any() or pos[:, 2].any():
        problems.append("a panel lies outside the aperture")
    gaps = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    if gaps[np.triu_indices(len(pos), 1)].min() < ana["min_spacing_m"]:
        problems.append("two panels are closer than min_spacing_m")
    if res["candidates_evaluated"] != ana["n_candidates"]:
        problems.append(f"candidates_evaluated={res['candidates_evaluated']}")
    if not _close(res["objective"]["exclusion_halfwidth_rad"], exclusion_halfwidth(ana), 1e-12):
        problems.append("exclusion halfwidth differs from the aperture formula")

    reported = res["peak_sidelobe_db"]
    if scalars.get("peak_sidelobe_db") != reported:
        problems.append("printed peak_sidelobe_db differs from placement.json")
    rescored = float(sidelobe_db(ana, pos))
    if abs(rescored - reported) > SIDELOBE_TOL_DB:
        problems.append(f"rescored sidelobe {rescored} dB, reported {reported} dB")

    children = np.random.SeedSequence(ana["seed"]).generate_state(
        ana["n_candidates"], dtype=np.uint64
    )
    scores = np.empty(len(children))
    for start in range(0, len(children), 64):
        batch = [candidate(ana, c) for c in children[start : start + 64]]
        scores[start : start + len(batch)] = sidelobe_db(ana, np.stack(batch))
    best = int(np.argmin(scores))
    if not np.array_equal(candidate(ana, children[best]), pos):
        problems.append(
            f"winner ({reported} dB) is not candidate {best} ({scores[best]} dB), "
            f"the first best of {len(scores)}"
        )
    return problems, {"winner_index": best}


CHECKS = {
    "beam_map": check_beam_map,
    "dof_sweep": check_dof_sweep,
    "placement_search": check_placement,
}
