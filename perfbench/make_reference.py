"""Record the reference certificates that the benchmark checks against.

Run from the repository root at the commit whose outputs are taken as
correct::

    PYTHONPATH=src python3 perfbench/make_reference.py

It overwrites ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bohrkit import errors, functionals, radii, verify  # noqa: E402
from bohrkit import weights as wt  # noqa: E402

import workloads as wl  # noqa: E402


def certificates(problems) -> dict:
    out = {}
    for prob in problems:
        cert = radii.solve_radius(prob)
        try:
            witness_a = verify.sharpness_witness(prob, wl.DELTA, cert).a
        except errors.NotFalsifiableError:
            witness_a = None
        out[wl.problem_key(prob)] = {"radius": cert.radius, "bracket_lo": cert.bracket_lo,
                                     "bracket_hi": cert.bracket_hi, "witness_a": witness_a}
    return out


def table_radii() -> dict:
    combos = [("psi1", m, 1.0, 2) for m in wl.TABLE_M]
    combos += [("psi5_t5", m, lam, 2) for m in wl.TABLE_M for lam in wl.LAMBDAS]
    combos += [("psi5_t6", m, lam, q) for m in wl.TABLE_M for lam in wl.LAMBDAS
               for q in wl.TABLE_Q if m < q]
    out = {}
    for fam, m, lam, q in combos:
        w = wt.power() if fam == "psi1" else None
        out[wl.table_key(fam, m, lam, q)] = [
            radii.solve_radius(radii.RadiusProblem(
                fam, functionals.FunctionalParams(m=m, p=wl.p_value(k), lam=lam, q=q), w)).radius
            for k in range(wl.P_COUNT)]
    return out


def scaled_table_radii() -> dict:
    w = wl.scaled_weights()
    return {f"{fam}|m={m}": [
        radii.solve_radius(radii.RadiusProblem(
            fam, functionals.FunctionalParams(m=m, p=wl.scaled_p_value(k)), w)).radius
        for k in range(wl.SCALED_P_COUNT)]
        for fam in wl.PSI_FAMILIES for m in wl.TABLE_M}


def main():
    reference = {
        "certify_power": certificates(wl.power_problems()),
        "certify_scaled": certificates(wl.scaled_problems(wl.scaled_weights())),
        "table": table_radii(),
        "table_scaled": scaled_table_radii(),
        "lemma_D": {f"{inst}|p={p:g}": verify.check_lemma_D(inst, m=1, p=p)["radius"]
                    for inst, p in wl.LEMMA_D_GRID},
    }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=0) + "\n")


if __name__ == "__main__":
    main()
