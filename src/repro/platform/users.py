"""Platform user accounts and profiles.

The platform keeps a detailed per-user profile "based on activity and
information from both on and off their platform" (paper section 1):
demographics, binary attribute memberships, multi-valued attribute
assignments, PII it has collected (from the user or elsewhere — see [35]),
page likes, and the audiences the user has been matched into.

Profiles are *internal to the platform*: advertisers never see them, and
the platform's own transparency surfaces deliberately show users only a
subset (see :mod:`repro.platform.adpreferences`).

:class:`UserProfile` is the plain per-user record: fields plus read
helpers, built with its fields given directly. The platform's registry
is :class:`~repro.platform.colstore.ColumnarUserStore`, which ingests
these records with ``add`` and hands back row views
(:class:`~repro.platform.colstore.UserView`) wearing the same read API
plus the mutators (``set_attribute``, ``clear_attribute``, ``add_pii``);
every write goes through a view, so it lands in the columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Set



@dataclass
class UserProfile:
    """Everything the platform knows about one user.

    Parameters
    ----------
    user_id:
        Platform-assigned id.
    country, age, gender, zip_code:
        Core demographics used by demographic targeting predicates.
    binary_attrs:
        Ids of BINARY catalog attributes that are *set* for this user.
        Absence means false-or-unknown — the platform does not distinguish,
        which is exactly why the paper's exclusion Treads can only reveal
        "false or missing" (section 3.1).
    multi_attrs:
        MULTI catalog attribute id -> assigned value.
    pii_hashes:
        Hashed PII the platform has associated with this user, as
        ``kind -> set of sha256 hex digests``. The platform may hold PII
        the user never provided directly (contact-list sync, 2FA numbers —
        paper section 5, citing [35]).
    liked_pages:
        Page ids the user has liked; page-engagement audiences build on
        this (the paper's validation opt-in is a page like).
    """

    user_id: str
    country: str = "US"
    age: int = 30
    gender: str = "unknown"
    zip_code: str = "00000"
    binary_attrs: Set[str] = field(default_factory=set)
    multi_attrs: Dict[str, str] = field(default_factory=dict)
    pii_hashes: Dict[str, Set[str]] = field(default_factory=dict)
    liked_pages: Set[str] = field(default_factory=set)

    def has_attribute(self, attr_id: str) -> bool:
        """True when a binary attribute is set (or a multi attr assigned)."""
        return attr_id in self.binary_attrs or attr_id in self.multi_attrs

    def attribute_ids(self) -> Iterator[str]:
        """All attribute ids present on this profile (binary then multi)."""
        yield from self.binary_attrs
        yield from self.multi_attrs

    def attribute_value(self, attr_id: str) -> Optional[str]:
        """Assigned value of a multi attribute, or None when unassigned."""
        return self.multi_attrs.get(attr_id)

    def has_pii_hash(self, kind: str, digest: str) -> bool:
        """Whether the platform holds this exact hashed PII for the user."""
        return digest in self.pii_hashes.get(kind, set())
