"""The three workloads: inputs from a seed, the items, and their checks.

A workload is a fixed round of item classes.  Each item calls the public
API of szegolab through module attributes (so the tracer's wrappers see the
calls) and returns its raw outputs; checks run after the timed phase
against references from bench/reference.py.

Inputs are drawn from ``numpy.random.default_rng(seed)``.  The roundtrip
workload's rapid-decay items are the one exception: their data is fixed, so
the items that a known fault makes fail are the same on every seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

ROUNDTRIP_MODES = 256
ROUNDTRIP_RTOL = 1e-7
RAPID_SEED = 20171206           # fixed: rapid-decay data does not depend on --seed
FLOW_MODES = 128
FLOW_T = 1.0
FLOW_DT = 1e-3
FLOW_SAMPLES = 17
FLOW_CONSERVED_RTOL = 1e-9
FLOW_SPECTRUM_RTOL = 1e-6
FLOW_POINT_RTOL = 1e-6
CERTIFY_N = 50
CERTIFY_RADIUS = 1.1
CERTIFY_POINTS = 32
CERTIFY_MP_RTOL = 1e-9
CERTIFY_ROUTE_ATOL = 1e-9
GEOMETRIC_N = 20
GEOMETRIC_R = 0.95
WINDING_OFFSET = 1e-3
TINY = 1e-17                    # floor on relative errors, so digits stay finite


@dataclass
class Outcome:
    ok: bool
    worst_rel: float            # worst relative error against a reference
    reason: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    round: list                 # class labels, in the fixed order of one round
    tail_pct: float             # percentile reported as item_tail_ms
    inputs: Callable            # seed -> {class: [entry, ...]}; items cycle through each list
    item: Callable              # (szegolab, entry, k) -> raw outputs
    check: Callable             # (entry, refs, outputs) -> Outcome
    prepare: Callable | None = None     # (pool, workdir) -> None, before the timed phase
    references: Callable | None = None  # entry -> refs, before the timed phase
    known_fault: frozenset = frozenset()  # classes that fail today on every input


def _draw_chain(rng, n_pairs, ratio_lo, ratio_hi):
    s1 = rng.uniform(0.5, 1.0)
    ratios = rng.uniform(ratio_lo, ratio_hi, size=2 * n_pairs - 1)
    s = s1 * np.concatenate([[1.0], np.cumprod(ratios)])
    psi = rng.uniform(0.0, 2.0 * np.pi, size=2 * n_pairs)
    return s, psi


def _resolvable(s, psi, m, times=(0.0,)) -> bool:
    """Coefficient m-1 below 2e-10 s_min at every time: m modes capture u."""
    for t in times:
        tail = abs(ref.taylor_dense(s, ref.evolve_angles(s, psi, t), m)[-1])
        if not tail <= 2e-10 * s[-1]:
            return False
    return True


def _spectral(sz, s, psi):
    return sz.inverse.SpectralData(np.asarray(s), np.asarray(psi))


def _rel(got, want, scale=None) -> float:
    den = abs(want) if scale is None else scale
    return abs(got - want) / den


# --- roundtrip ----------------------------------------------------------------

ROUNDTRIP_POOL = {"moderate": 48, "rapid": 4}


def roundtrip_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    moderate = []
    while len(moderate) < ROUNDTRIP_POOL["moderate"]:
        n = int(rng.integers(1, 7))
        s, psi = _draw_chain(rng, n, 0.45, 0.8)
        if _resolvable(s, psi, ROUNDTRIP_MODES):
            moderate.append({"s": s, "psi": psi})
    fixed = np.random.default_rng(RAPID_SEED)
    rapid = []
    for _ in range(ROUNDTRIP_POOL["rapid"]):
        s, psi = _draw_chain(fixed, 3, 0.015, 0.025)
        rapid.append({"s": s, "psi": psi})
    return {"moderate": moderate, "rapid": rapid}


def roundtrip_prepare(pool: dict, workdir: Path) -> None:
    """Write each input as a pairs file, as a CLI user would have it."""
    for label, entries in pool.items():
        for i, e in enumerate(entries):
            e["path"] = str(workdir / f"{label}_{i}.json")
            e["workdir"] = workdir
            obj = {"pairs": [{"s": float(a), "psi": float(b)} for a, b in zip(e["s"], e["psi"])]}
            Path(e["path"]).write_text(json.dumps(obj), encoding="utf-8")
    (workdir / "spectra").mkdir(exist_ok=True)


def roundtrip_item(sz, entry: dict, k: int):
    workdir = entry["workdir"]
    coeffs = str(workdir / "coeffs.csv")
    spectrum = str(workdir / "spectra" / f"{k}.csv")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = sz.cli.main(["reconstruct", "--data", entry["path"], "--modes", str(ROUNDTRIP_MODES),
                          "--out", coeffs])
        if rc == 0:
            rc = sz.cli.main(["spectrum", "--coeffs", coeffs, "--M", str(ROUNDTRIP_MODES),
                              "--out", spectrum])
    return {"rc": rc, "spectrum": spectrum}


def read_spectrum(path) -> np.ndarray:
    """Merged list (rho_1, sigma_1, rho_2, ...) from a spectrum CSV."""
    rho, sigma = [], []
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            (rho if row["kind"] == "rho" else sigma).append(float(row["value"]))
    merged = np.empty(len(rho) + len(sigma))
    n = min(len(rho), len(sigma))
    merged[0:2 * n:2] = rho[:n]
    merged[1:2 * n:2] = sigma[:n]
    merged[2 * n:] = rho[n:] + sigma[n:]
    return merged


def check_spectrum(s_in, got) -> Outcome:
    """Every s_r recovered, each to ROUNDTRIP_RTOL relative to itself."""
    s_in = np.asarray(s_in)
    if got.size != s_in.size:
        return Outcome(False, math.inf, f"{got.size} of {s_in.size} singular values returned")
    worst = float(np.max(np.abs(got - s_in) / s_in))
    if not worst <= ROUNDTRIP_RTOL:
        return Outcome(False, worst, f"relative error {worst:.3e} > {ROUNDTRIP_RTOL:g}")
    return Outcome(True, worst)


def roundtrip_check(entry, _refs, out) -> Outcome:
    if out["rc"] != 0:
        return Outcome(False, math.inf, f"exit code {out['rc']}")
    return check_spectrum(entry["s"], read_spectrum(out["spectrum"]))


# --- flow ---------------------------------------------------------------------

FLOW_POOL = {"flow": 24}


def flow_inputs(seed: int) -> dict:
    """Alternately 1 and 2 pairs; the item cost does not depend on which."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, FLOW_T, FLOW_SAMPLES)
    entries = []
    while len(entries) < FLOW_POOL["flow"]:
        s, psi = _draw_chain(rng, 1 + len(entries) % 2, 0.3, 0.6)
        zs = 0.5 * np.exp(2j * np.pi * rng.uniform(size=3))
        if _resolvable(s, psi, FLOW_MODES, times):
            entries.append({"s": s, "psi": psi, "z": zs})
    return {"flow": entries}


def flow_references(entry) -> dict:
    s, psi = entry["s"], entry["psi"]
    final = ref.evolve_angles(s, psi, FLOW_T)
    return {"mass": ref.mass_closed_form(s), "h_half_sq": ref.h_half_closed_form(s),
            "u_final": [ref.u_mpmath(s, final, z) for z in entry["z"]]}


def flow_item(sz, entry: dict, _k: int):
    u0 = sz.inverse.reconstruct_function(_spectral(sz, entry["s"], entry["psi"]), FLOW_MODES)
    traj = sz.flow.integrate(u0, FLOW_T, FLOW_DT, FLOW_MODES, n_samples=FLOW_SAMPLES)
    rows = sz.flow.conservation_report(traj)
    return {"rows": [(r.t, r.mass, r.h_half_norm, r.rho, r.sigma) for r in rows],
            "final": np.array(traj[-1].u.coeffs), "t_final": traj[-1].t}


def check_flow(entry, refs, out) -> Outcome:
    """Closed-form mass and H^(1/2), the frozen spectrum, and u(T) against mpmath."""
    rows = out["rows"]
    if len(rows) != FLOW_SAMPLES or abs(out["t_final"] - FLOW_T) > 1e-12:
        return Outcome(False, math.inf, f"{len(rows)} samples ending at t={out['t_final']}")
    worst = 0.0
    for t, mass, h_half, rho, sigma in rows:
        e = max(_rel(mass, refs["mass"]), _rel(h_half ** 2, refs["h_half_sq"]))
        if not e <= FLOW_CONSERVED_RTOL:
            return Outcome(False, e, f"conserved quantity off by {e:.3e} at t={t:g}")
        got = np.empty(rho.size + sigma.size)
        if rho.size != sigma.size or got.size != entry["s"].size:
            return Outcome(False, math.inf, f"{got.size} singular values at t={t:g}")
        got[0::2], got[1::2] = rho, sigma
        e_s = float(np.max(np.abs(got - entry["s"]) / entry["s"]))
        if not e_s <= FLOW_SPECTRUM_RTOL:
            return Outcome(False, e_s, f"spectrum off by {e_s:.3e} at t={t:g}")
        worst = max(worst, e, e_s)
    scale = math.sqrt(refs["mass"])             # |u(z)| <= ||u|| / sqrt(1 - |z|^2)
    coeffs = out["final"]
    for z, want in zip(entry["z"], refs["u_final"]):
        got = complex(np.polyval(coeffs[::-1], z))
        e = _rel(got, want, max(abs(want), scale))
        if not e <= FLOW_POINT_RTOL:
            return Outcome(False, e, f"u(T) at z={z:.3f} off by {e:.3e}")
        worst = max(worst, e)
    return Outcome(True, worst)


# --- certify ------------------------------------------------------------------

CERTIFY_POOL = {"certify": 12}


def certify_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(CERTIFY_POOL["certify"]):
        delta = float(rng.uniform(0.05, 0.15))
        zs = np.exp(2j * np.pi * rng.uniform(size=2)) * rng.uniform(0.0, 1.0, size=2)
        entries.append({
            "delta": delta,
            "s": delta ** np.arange(1, 2 * CERTIFY_N + 1, dtype=float),
            "z_mp": CERTIFY_RADIUS if i % 2 == 0 else -CERTIFY_RADIUS,
            "h": float(rng.uniform(0.69, 1.2)),
            "theta": float(rng.uniform(0.0, 0.5)),
            "z_route": zs,
        })
    return {"certify": entries}


def certify_points() -> np.ndarray:
    return CERTIFY_RADIUS * np.exp(2j * np.pi * np.arange(CERTIFY_POINTS) / CERTIFY_POINTS)


def certify_references(entry) -> dict:
    s, delta = entry["s"], entry["delta"]
    gamma = math.exp(-2.0 * entry["h"])
    return {"a": ref.a_explicit(delta), "c0": ref.c0_inverse_bound(float(s[0]), delta),
            "cap": ref.neumann_cap(float(s[0]), delta, CERTIFY_RADIUS),
            "u_mp": ref.u_mpmath(s, np.zeros_like(s), entry["z_mp"]),
            "gamma": gamma, "poisson": ref.poisson_bound(gamma)}


def certify_item(sz, entry: dict, _k: int):
    inv, geo = sz.inverse, sz.geometric
    d = _spectral(sz, entry["s"], np.zeros_like(entry["s"]))
    bounds = inv.operator_bounds(d)
    u_circle = [inv.reconstruct_point(d, z, method="neumann") for z in certify_points()]
    p = geo.GeometricParams(h=entry["h"], theta=entry["theta"])
    gamma = p.gamma
    gap = geo.zero_gap(gamma)
    inner = geo.winding_index(lambda zz: geo.f_gamma(gamma, (1.0 - WINDING_OFFSET) * zz))
    outer = geo.winding_index(lambda zz: geo.f_gamma(gamma, (1.0 + WINDING_OFFSET) * zz))
    d_geo = geo.geometric_spectral_data(p, GEOMETRIC_N)
    routes = [(geo.u_via_toeplitz(p, z, GEOMETRIC_R, GEOMETRIC_N),
               inv.reconstruct_point(d_geo, z, method="neumann")) for z in entry["z_route"]]
    return {"l1_product": bounds.l1_norm_product, "l1_c0inv": bounds.l1_norm_c0inv_sum,
            "radius": bounds.certified_radius, "u_circle": np.array(u_circle),
            "gap": gap.gap, "gap_bound": gap.poisson_bound, "gamma": gamma,
            "winding": (inner, outer), "routes": routes}


def check_certify(entry, refs, out) -> Outcome:
    """Explicit l1 constants, the cap on |z| = 1.1, mpmath, gap, indices, routes."""
    if not out["l1_product"] <= refs["a"]:
        return Outcome(False, math.inf, f"l1 product {out['l1_product']:.6g} > a(delta) {refs['a']:.6g}")
    if not out["l1_c0inv"] <= refs["c0"]:
        return Outcome(False, math.inf, f"l1 entry sum {out['l1_c0inv']:.6g} > bound {refs['c0']:.6g}")
    if out["radius"] is None or not out["radius"] >= CERTIFY_RADIUS - 1.0:
        return Outcome(False, math.inf, f"certified radius {out['radius']} below {CERTIFY_RADIUS - 1.0:g}")
    mods = np.abs(out["u_circle"])
    if not np.all(np.isfinite(mods)) or not mods.max() <= refs["cap"]:
        return Outcome(False, math.inf, f"max |u| on the circle {mods.max():.6g} > cap {refs['cap']:.6g}")
    k = int(np.argmin(np.abs(certify_points() - entry["z_mp"])))
    worst = _rel(complex(out["u_circle"][k]), refs["u_mp"])
    if not worst <= CERTIFY_MP_RTOL:
        return Outcome(False, worst, f"u({entry['z_mp']}) off mpmath by {worst:.3e}")
    if abs(out["gamma"] - refs["gamma"]) > 1e-15:
        return Outcome(False, math.inf, f"gamma {out['gamma']!r} != {refs['gamma']!r}")
    if not out["gap"] >= refs["poisson"] - 1e-12:
        return Outcome(False, math.inf, f"gap {out['gap']:.6g} below Poisson bound {refs['poisson']:.6g}")
    e_bound = _rel(out["gap_bound"], refs["poisson"])
    if not e_bound <= 1e-12:
        return Outcome(False, e_bound, f"reported Poisson bound off by {e_bound:.3e}")
    if tuple(out["winding"]) != (0, -1):
        return Outcome(False, math.inf, f"winding indices {out['winding']} != (0, -1)")
    worst = max(worst, e_bound)
    for u_t, u_c in out["routes"]:
        if not abs(u_t - u_c) <= CERTIFY_ROUTE_ATOL:
            return Outcome(False, math.inf, f"Toeplitz and Cauchy routes differ by {abs(u_t - u_c):.3e}")
        worst = max(worst, _rel(u_t, u_c))
    return Outcome(True, worst)


# --- registry -----------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload("roundtrip", ["moderate", "moderate", "moderate", "rapid"], 95.0, roundtrip_inputs,
             roundtrip_item, roundtrip_check, prepare=roundtrip_prepare,
             known_fault=frozenset({"rapid"})),
    Workload("flow", ["flow"], 80.0, flow_inputs, flow_item, check_flow,
             references=flow_references),
    Workload("certify", ["certify"], 90.0, certify_inputs, certify_item, check_certify,
             references=certify_references),
)}
