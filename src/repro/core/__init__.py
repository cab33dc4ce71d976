"""The paper's contribution: the Sync protocol and its analysis tools.

* :mod:`repro.core.params` — parameterization and Theorem 5 bounds.
* :mod:`repro.core.estimation` — clock estimation (Definition 4).
* :mod:`repro.core.convergence` — the Figure 1 convergence function and
  comparison baselines.
* :mod:`repro.core.sync` — the Sync protocol process.
* :mod:`repro.core.envelope` — Appendix A envelope calculus.
* :mod:`repro.core.analysis` — claim checkers (Lemma 7, Claim 8,
  Theorem 5) run against simulation output.
"""

from repro import _lazy

__all__ = [
    "ProtocolParams",
    "Theorem5Bounds",
    "ClockEstimate",
    "EstimationSession",
    "self_estimate",
    "timeout_estimate",
    "ConvergenceFunction",
    "CorrectionDecision",
    "PaperConvergence",
    "ClampedConvergence",
    "TrimmedMeanConvergence",
    "MeanConvergence",
    "MidpointConvergence",
    "paper_order_statistics",
    "SyncProcess",
    "SyncRecord",
    "Envelope",
    "average",
    "envelope_of_biases",
    "lemma7_shrunk_width",
    "envelope_trajectory",
    "EnvelopeStep",
    "recovery_trajectory",
    "RecoveryStep",
    "halving_holds",
    "theorem5_verdict",
    "Theorem5Verdict",
    "verify_bias_formulation",
    "section43_properties",
    "PropertyCheck",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.core.analysis": (
        "EnvelopeStep", "PropertyCheck", "RecoveryStep", "Theorem5Verdict",
        "envelope_trajectory", "halving_holds", "recovery_trajectory",
        "section43_properties", "theorem5_verdict", "verify_bias_formulation",
    ),
    "repro.core.convergence": (
        "ClampedConvergence", "ConvergenceFunction", "CorrectionDecision",
        "MeanConvergence", "MidpointConvergence", "PaperConvergence",
        "TrimmedMeanConvergence", "paper_order_statistics",
    ),
    "repro.core.envelope": (
        "Envelope", "average", "envelope_of_biases", "lemma7_shrunk_width",
    ),
    "repro.core.estimation": (
        "ClockEstimate", "EstimationSession", "self_estimate",
        "timeout_estimate",
    ),
    "repro.core.params": (
        "ProtocolParams", "Theorem5Bounds",
    ),
    "repro.core.sync": (
        "SyncProcess", "SyncRecord",
    ),
})
