"""Adversarial probes of the platform's privacy guarantees.

The paper's privacy analysis (sections 3.1 and 5) *assumes* "that the
advertising platform is designed not to leak the information of
individual users to advertisers" and that known leaks "will be patched".
This subpackage makes that assumption testable: it implements the
malicious-advertiser inference attacks from the literature the paper
cites (Korolova's microtargeting attack; the audience-size side channels
of Venkatadri et al.) against the simulated platform, so the benchmarks
can measure which defenses block which attacks — and what those defenses
cost Treads itself.
"""

from repro.attacks.audience_size import (
    DeliveryInferenceAttack,
    SizeEstimateAttack,
    SybilPaddedProbe,
)

__all__ = ["DeliveryInferenceAttack", "SizeEstimateAttack",
           "SybilPaddedProbe"]
