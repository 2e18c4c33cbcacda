"""Functional-dependency discovery over level instances.

The multidimensional-design rationale (paper ref. [7], Romero & Abelló):
a property ``p`` of the members of level ``l`` that behaves like a
function ``l → p`` is a sound candidate for a coarser granularity
level, because grouping by its values partitions the members.  In the
messy Linked Data context exact FDs are rare, so the module also admits
*quasi-FDs*: functions violated by at most a configurable fraction of
members.

Given the member-property table collected by
:mod:`repro.enrichment.instances`, :func:`discover_candidates` profiles
every property and classifies it as

* a **level candidate** — IRI-valued, (quasi-)functional, and actually
  *grouping* (clearly fewer distinct values than members);
* an **attribute candidate** — (quasi-)functional but either
  literal-valued or nearly unique per member (a descriptive property);
* or **rejected** — too sparse, too multi-valued, or excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.rdf.terms import IRI, Literal, Term
from repro.enrichment.config import EnrichmentConfig

LEVEL = "level"
ATTRIBUTE = "attribute"
REJECTED = "rejected"


@dataclass
class PropertyProfile:
    """Statistics of one property over a member set."""

    prop: IRI
    n_members: int
    values_by_member: Dict[Term, List[Term]] = field(default_factory=dict)

    # -- derived statistics --------------------------------------------------

    @property
    def with_value(self) -> int:
        return sum(1 for values in self.values_by_member.values() if values)

    @property
    def multi_valued(self) -> int:
        return sum(1 for values in self.values_by_member.values()
                   if len(values) > 1)

    @property
    def missing(self) -> int:
        return self.n_members - self.with_value

    @property
    def distinct_values(self) -> int:
        seen = set()
        for values in self.values_by_member.values():
            seen.update(values)
        return len(seen)

    @property
    def support(self) -> float:
        if self.n_members == 0:
            return 0.0
        return self.with_value / self.n_members

    @property
    def fd_error(self) -> float:
        """Fraction of members violating functionality (0 or >1 values)."""
        if self.n_members == 0:
            return 1.0
        return (self.missing + self.multi_valued) / self.n_members

    @property
    def is_exact_fd(self) -> bool:
        return self.fd_error == 0.0

    @property
    def distinct_ratio(self) -> float:
        if self.with_value == 0:
            return 1.0
        return self.distinct_values / self.with_value

    @property
    def all_iri_values(self) -> bool:
        return all(
            isinstance(value, IRI)
            for values in self.values_by_member.values()
            for value in values) and self.with_value > 0

    @property
    def all_literal_values(self) -> bool:
        return all(
            isinstance(value, Literal)
            for values in self.values_by_member.values()
            for value in values) and self.with_value > 0

    def functional_mapping(self, policy: str = "first"
                           ) -> Dict[Term, List[Term]]:
        """member → parent value(s), resolved per the multi-parent policy."""
        mapping: Dict[Term, List[Term]] = {}
        for member, values in self.values_by_member.items():
            if not values:
                continue
            if len(values) == 1 or policy == "all":
                mapping[member] = sorted(
                    values, key=lambda t: getattr(t, "value", str(t)))
            else:  # "first": deterministic single parent
                mapping[member] = [min(
                    values, key=lambda t: getattr(t, "value", str(t)))]
        return mapping


@dataclass
class Candidate:
    """One suggestion shown to the user."""

    prop: IRI
    kind: str  # LEVEL or ATTRIBUTE
    profile: PropertyProfile

    @property
    def score(self) -> float:
        """Ranking: strong grouping + high support + low error first."""
        profile = self.profile
        grouping = 1.0 - profile.distinct_ratio
        return (2.0 * grouping) + profile.support - (3.0 * profile.fd_error)

    def describe(self) -> str:
        profile = self.profile
        return (
            f"{self.kind.upper():9s} {self.prop.value} "
            f"support={profile.support:.2f} "
            f"error={profile.fd_error:.2f} "
            f"distinct={profile.distinct_values}/{profile.with_value}")


def profile_properties(
        member_property_table: Dict[IRI, Dict[Term, List[Term]]],
        n_members: int) -> List[PropertyProfile]:
    """Build profiles from the raw member-property table."""
    profiles = []
    for prop, values_by_member in member_property_table.items():
        profiles.append(PropertyProfile(
            prop=prop,
            n_members=n_members,
            values_by_member=dict(values_by_member)))
    return profiles


def classify_profile(profile: PropertyProfile,
                     config: EnrichmentConfig) -> str:
    """LEVEL / ATTRIBUTE / REJECTED decision for one property."""
    if profile.prop.value in config.excluded_properties:
        return REJECTED
    if profile.support < config.min_support:
        return REJECTED
    if profile.fd_error > config.quasi_fd_threshold:
        return REJECTED
    if profile.all_iri_values:
        if (profile.distinct_ratio <= config.max_level_distinct_ratio
                and profile.distinct_values >= config.min_level_distinct):
            return LEVEL
        return ATTRIBUTE
    if profile.all_literal_values:
        return ATTRIBUTE
    return REJECTED


def discover_candidates(
        member_property_table: Dict[IRI, Dict[Term, List[Term]]],
        n_members: int,
        config: Optional[EnrichmentConfig] = None) -> List[Candidate]:
    """Ranked level/attribute candidates for one level's member set."""
    config = config or EnrichmentConfig()
    config.validate()
    candidates: List[Candidate] = []
    for profile in profile_properties(member_property_table, n_members):
        kind = classify_profile(profile, config)
        if kind == REJECTED:
            continue
        candidates.append(Candidate(profile.prop, kind, profile))
    candidates.sort(key=lambda c: (-c.score, c.prop.value))
    return candidates
