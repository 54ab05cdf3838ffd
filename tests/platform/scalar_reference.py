"""The per-slot saturation loop the batch sweep is checked against.

Saturating one slot at a time through the engine's per-slot body
(``_serve_round(..., saturating=True)``), round after round, until a
round fills nothing or ``max_rounds`` is reached. Within one run every
eligibility condition is monotone — caps only accumulate, budgets only
shrink, statuses and matches are static — so a user whose eligible set
empties can never regain one and is dropped from the rotation.
"""

from repro.platform.delivery import DeliveryStats


def saturate(platform, max_rounds: int = 50) -> DeliveryStats:
    """Serve every user of ``platform`` until no tracked ad can deliver
    another impression; returns the tallied stats."""
    engine = platform.delivery
    stats = DeliveryStats()
    active = list(platform.users)
    for _ in range(max_rounds):
        progressed, active = engine._serve_round(active, stats,
                                                 saturating=True)
        if not progressed:
            break
    return stats
