"""Declarative mismatch: VariationSpec instead of covariance matrices.

The paper's method (Eq. 6) propagates a parameter covariance through
periodic sensitivities.  Building that matrix by hand couples every
caller to the ordering of ``circuit.mismatch_decls()``; a
:class:`repro.VariationSpec` names the variations instead -
(component, parameter, distribution) triples plus correlation groups -
and lowers onto the very same matrix, so the declarative form is
bit-identical to the raw-array form everywhere (direct analysis,
Monte-Carlo, shards across a worker pool).

Shown here on the resistor-string DAC divider:

1. a spec covering the declared Pelgrom sigmas, plus a correlated
   pair (same-tub resistors tracking with rho = 0.8);
2. the non-Monte-Carlo sigma with and without correlation;
3. the same spec shipped through JSON into a Monte-Carlo request -
   same samples as the hand-built matrix;
4. a Fig.-11-style mismatch-scale sweep via ``spec.scaled``.
"""

import json

import numpy as np

from repro.api import (AnalysisRequest, AnalysisSession, Circuit,
                       CorrelationGroup, ParameterVariation, VariationSpec,
                       dc_mismatch_analysis, from_jsonable, monte_carlo_dc,
                       to_jsonable)


def ladder() -> Circuit:
    ckt = Circuit("ladder")
    ckt.add_vsource("VREF", "ref", "0", dc=1.2)
    ckt.add_resistor("R1", "ref", "mid", 1e3, sigma_rel=0.01)
    ckt.add_resistor("R2", "mid", "tap", 1e3, sigma_rel=0.01)
    ckt.add_resistor("R3", "tap", "0", 2e3, sigma_rel=0.01)
    return ckt


def spec_with_rho(rho: float) -> VariationSpec:
    group = CorrelationGroup("tub", rho=rho)
    return VariationSpec(
        variations=(
            ParameterVariation("R1", "r", group="tub"),
            ParameterVariation("R2", "r", group="tub"),
            ParameterVariation("R3", "r"),
        ),
        groups=(group,),
    )


def main() -> None:
    ckt = ladder()
    outputs = {"vtap": "tap"}

    # 1-2. correlation is one line in the spec, not a matrix edit
    print("sigma(vtap) vs same-tub correlation (non-MC, Eq. 6):")
    for rho in (0.0, 0.4, 0.8):
        res = dc_mismatch_analysis(ckt, outputs,
                                   variations=spec_with_rho(rho))
        print(f"  rho = {rho:.1f}   sigma = "
              f"{res.sigma('vtap') * 1e3:.4f} mV")

    # 3. the spec is JSON all the way down: ship it inside a request
    spec = spec_with_rho(0.8)
    wire = json.dumps(to_jsonable(spec))
    shipped = from_jsonable(json.loads(wire))
    assert shipped == spec and shipped.fingerprint() == spec.fingerprint()
    print(f"spec round-trips through JSON ({len(wire)} bytes, "
          f"fingerprint {spec.fingerprint()[:12]}...)")

    req = AnalysisRequest.monte_carlo_dc(ckt, outputs, n=256, seed=11,
                                         variations=shipped)
    mc = AnalysisSession().run(req)
    hand = monte_carlo_dc(ckt, outputs, 256, seed=11,
                          param_covariance=spec.covariance(ckt))
    same = np.isclose(mc.summary["metrics"]["vtap"]["sigma"],
                      hand.stats["vtap"].std)
    print(f"MC through the request path, spec vs hand-built "
          f"covariance: sigma identical = {bool(same)}")

    # 4. Fig.-11-style sweep: scale every declared sigma by one factor
    print("mismatch-scale sweep (spec.scaled, as in the paper's "
          "Fig. 11):")
    for factor in (1.0, 2.0, 4.0):
        res = dc_mismatch_analysis(ckt, outputs,
                                   variations=spec.scaled(factor))
        print(f"  x{factor:.0f}   sigma = "
              f"{res.sigma('vtap') * 1e3:.4f} mV")


if __name__ == "__main__":
    main()
