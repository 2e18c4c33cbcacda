"""Columnar-ETL tests: production/oracle equivalence (the demo cube, a
dirty cube, generated cubes in every physical state of the store),
determinism regressions (hash-order multi-value picks, multi-target
roll-ups, mixed-class members), what the clean path never calls,
missing-value sentinels, the epoch stamp, and the FactColumns
snapshot layout."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.qb import vocabulary as qb
from repro.qb4olap import vocabulary as qb4o
from repro.qb4olap.model import (
    CubeSchema,
    Dimension,
    Hierarchy,
    HierarchyStep,
    Measure,
)
from repro.rdf import BNode, IRI, Literal, Namespace
from repro.rdf.dictionary import OVERLAY_BASE, TermDictionary
from repro.rdf.namespace import SKOS
from repro.sparql import LocalEndpoint
from repro.olap.etl import (
    _by_value,
    _extract_facts,
    deterministic_key,
    extract_star_schema,
)
from repro.olap.star import FactColumns, _code_dtype

from tests.olap.reference_dimensions import reference_dimension
from tests.olap.reference_etl import reference_by_value, reference_star_schema

EX = Namespace("http://example.org/etl/")


def tiny_schema() -> CubeSchema:
    schema = CubeSchema(dsd=EX.dsd, dataset=EX.ds)
    hierarchy = Hierarchy(EX.geoHier, EX.geoDim,
                          levels=[EX.city, EX.region],
                          steps=[HierarchyStep(EX.city, EX.region)])
    schema.dimensions.append(Dimension(EX.geoDim, [hierarchy]))
    schema.dimension_levels[EX.geoDim] = EX.city
    schema.measures.append(Measure(EX.amount, qb4o.SUM))
    return schema


def tiny_endpoint(order: str = "forward") -> LocalEndpoint:
    """A two-observation cube; ``order`` flips the insertion order of
    the multi-valued triples so hash/insertion order cannot hide a
    nondeterministic pick."""
    endpoint = LocalEndpoint()
    graph = endpoint.dataset.default
    for member in (EX.cityA, EX.cityB):
        graph.add(member, qb4o.memberOf, EX.city)
    for member in (EX.regionX, EX.regionY):
        graph.add(member, qb4o.memberOf, EX.region)
    # cityA rolls up to BOTH regions (dirty data): the extractor must
    # deterministically keep the minimum-key target, never hash order
    broader = [(EX.cityA, EX.regionY), (EX.cityA, EX.regionX),
               (EX.cityB, EX.regionY)]
    # obs1 carries TWO values for the dimension and TWO for the measure
    multi = [(EX.obs1, EX.city, EX.cityB), (EX.obs1, EX.city, EX.cityA),
             (EX.obs1, EX.amount, Literal(7)), (EX.obs1, EX.amount,
                                                Literal(3))]
    if order == "reversed":
        broader = list(reversed(broader))
        multi = list(reversed(multi))
    for subject, target in broader:
        graph.add(subject, SKOS.broader, target)
    graph.add(EX.obs1, qb.dataSet, EX.ds)
    for subject, predicate, obj in multi:
        graph.add(subject, predicate, obj)
    graph.add(EX.obs2, qb.dataSet, EX.ds)
    graph.add(EX.obs2, EX.city, EX.cityB)
    # obs2 has NO measure value at all (NaN sentinel)
    return endpoint


def production(endpoint, schema):
    return extract_star_schema(endpoint, schema)[0]


def oracle(endpoint, schema):
    return reference_star_schema(endpoint, schema)


#: the production extractor and the per-observation oracle must obey
#: the same determinism / sentinel contract
EXTRACTORS = [production, oracle]


def assert_identical(left, right):
    assert set(left.facts.coordinates) == set(right.facts.coordinates)
    for iri, codes in left.facts.coordinates.items():
        assert np.array_equal(codes, right.facts.coordinates[iri]), iri
    for iri, values in left.facts.measures.items():
        assert np.array_equal(values, right.facts.measures[iri],
                              equal_nan=True), iri


class TestVectorizedEquivalence:
    def test_matches_reference_on_demo(self, endpoint, schema):
        assert_identical(production(endpoint, schema),
                         oracle(endpoint, schema))

    def test_matches_reference_on_dirty_cube(self):
        endpoint = tiny_endpoint()
        assert_identical(production(endpoint, tiny_schema()),
                         oracle(endpoint, tiny_schema()))
        endpoint.close()


class TestDeterminism:
    @pytest.mark.parametrize("extract", EXTRACTORS)
    def test_multivalued_picks_minimum_key(self, extract):
        """Regression: the extractor used to take ``next(iter(set))``
        for multi-valued observation properties — hash order."""
        for order in ("forward", "reversed"):
            endpoint = tiny_endpoint(order)
            star = extract(endpoint, tiny_schema())
            table = star.dimensions[EX.geoDim]
            codes = star.facts.coordinates[EX.geoDim]
            # obs1's dimension value: cityA < cityB by deterministic key
            assert table.bottom_members[codes[0]] == EX.cityA, order
            # obs1's measure value: Literal(3) < Literal(7)
            assert star.facts.measures[EX.amount][0] == 3.0, order
            endpoint.close()

    @pytest.mark.parametrize("extract", EXTRACTORS)
    def test_rollup_picks_minimum_broader_target(self, extract):
        """Regression: ``_compose_rollups`` used to keep the first
        ``skos:broader`` target iteration happened to yield."""
        for order in ("forward", "reversed"):
            endpoint = tiny_endpoint(order)
            star = extract(endpoint, tiny_schema())
            table = star.dimensions[EX.geoDim]
            ancestor = table.map_to_level(EX.region)
            members = table.members_at(EX.region)
            code_a = table.bottom_code(EX.cityA)
            # regionX < regionY: the minimum-key parent must win
            assert members[ancestor[code_a]] == EX.regionX, order
            endpoint.close()

    @pytest.mark.parametrize("extract", EXTRACTORS)
    def test_mixed_class_members_pick_minimum_key(self, extract):
        """Regression: the dimension pick took the smallest *code*.
        Members are value-ordered, which is key order only within one
        term class: ``"A:city" < "_:zzz"`` by value, but a blank node
        sorts before an IRI by ``deterministic_key``."""
        named, blank = IRI("A:city"), BNode("zzz")
        for values in ([named, blank], [blank, named]):
            endpoint = LocalEndpoint()
            graph = endpoint.dataset.default
            for member in (named, blank):
                graph.add(member, qb4o.memberOf, EX.city)
            graph.add(EX.obs1, qb.dataSet, EX.ds)
            for value in values:
                graph.add(EX.obs1, EX.city, value)
            star = extract(endpoint, tiny_schema())
            table = star.dimensions[EX.geoDim]
            assert table.bottom_members == [named, blank]
            code = star.facts.coordinates[EX.geoDim][0]
            assert table.bottom_members[code] == blank, values
            endpoint.close()

    def test_byte_identical_across_runs(self):
        first_endpoint = tiny_endpoint("forward")
        second_endpoint = tiny_endpoint("reversed")
        first, _ = extract_star_schema(first_endpoint, tiny_schema())
        second, _ = extract_star_schema(second_endpoint, tiny_schema())
        for iri in first.facts.coordinates:
            assert first.facts.coordinates[iri].tobytes() \
                == second.facts.coordinates[iri].tobytes()
        for iri in first.facts.measures:
            assert first.facts.measures[iri].tobytes() \
                == second.facts.measures[iri].tobytes()
        first_endpoint.close()
        second_endpoint.close()

    def test_deterministic_key_orders_by_class_then_value(self):
        assert deterministic_key(Literal(3)) < deterministic_key(Literal(7))
        assert deterministic_key(IRI("a")) < deterministic_key(IRI("b"))


class TestMissingValueSentinels:
    @pytest.mark.parametrize("extract", EXTRACTORS)
    def test_missing_measure_is_nan(self, extract):
        endpoint = tiny_endpoint()
        star = extract(endpoint, tiny_schema())
        values = star.facts.measures[EX.amount]
        assert np.isnan(values[1])  # obs2 has no amount
        endpoint.close()

    @pytest.mark.parametrize("extract", EXTRACTORS)
    def test_non_member_value_is_minus_one(self, extract):
        endpoint = tiny_endpoint()
        graph = endpoint.dataset.default
        graph.add(EX.obs3, qb.dataSet, EX.ds)
        graph.add(EX.obs3, EX.city, EX.nowhere)  # not a city member
        star = extract(endpoint, tiny_schema())
        assert star.facts.coordinates[EX.geoDim][2] == -1
        assert np.isnan(star.facts.measures[EX.amount][2])
        endpoint.close()

    def test_non_member_beside_a_member_counts_for_nothing(self):
        """Production joins values to members before it picks, as the
        SPARQL path's ``?obs :city ?m . ?m qb4o:memberOf :city`` does:
        a stray value cannot hide the member beside it.  (The oracle
        picks first and answers ``-1`` here.)"""
        endpoint = tiny_endpoint()
        graph = endpoint.dataset.default
        graph.add(EX.obs2, EX.city, EX.aStray)  # sorts before cityB
        star = production(endpoint, tiny_schema())
        table = star.dimensions[EX.geoDim]
        code = star.facts.coordinates[EX.geoDim][1]
        assert table.bottom_members[code] == EX.cityB
        assert oracle(endpoint, tiny_schema()) \
            .facts.coordinates[EX.geoDim][1] == -1
        endpoint.close()


# -- generated cubes ----------------------------------------------------------

CITIES = [EX.cityA, EX.cityB, BNode("cityC"), IRI("A:city")]
REGIONS = [EX.regionX, EX.regionY, BNode("regionZ")]
COUNTRIES = [EX.countryP, EX.countryQ]
KINDS = [EX.kindK, EX.kindL, EX.kindM]
SUBJECTS = [EX[f"obs{number}"] for number in range(8)] \
    + [BNode("o1"), BNode("o2")]
#: measure values with pairwise distinct deterministic keys: numbers,
#: a string, both booleans, and a term that is no literal at all
PAYLOADS = [Literal(3), Literal(7), Literal(2.5), Literal("abc"),
            Literal(True), Literal(False), EX.notANumber]
LABELS = [Literal("n1"), Literal("n2"), Literal(5), EX.thing]


def wide_schema() -> CubeSchema:
    """Two dimensions (one three levels deep, attributes on two of
    them) and two measures."""
    schema = CubeSchema(dsd=EX.dsd, dataset=EX.ds)
    geo = Hierarchy(EX.geoHier, EX.geoDim,
                    levels=[EX.city, EX.region, EX.country],
                    steps=[HierarchyStep(EX.city, EX.region),
                           HierarchyStep(EX.region, EX.country)])
    kind = Hierarchy(EX.kindHier, EX.kindDim, levels=[EX.kind])
    schema.dimensions += [Dimension(EX.geoDim, [geo]),
                          Dimension(EX.kindDim, [kind])]
    schema.dimension_levels.update({EX.geoDim: EX.city,
                                    EX.kindDim: EX.kind})
    schema.measures += [Measure(EX.amount, qb4o.SUM),
                        Measure(EX.weight, qb4o.AVG)]
    schema.level_attributes.update({EX.city: [EX.name],
                                    EX.region: [EX.name, EX.code]})
    return schema


def some(pool, most):
    return st.lists(st.sampled_from(pool), max_size=most, unique=True)


def members_only_beside_members(cube):
    """Where an observation carries members *and* other values for one
    dimension, keep the members.  The one input the extractors disagree
    on, since before the columnar one: production — like the SPARQL
    join, like the roll-ups' eligible targets — never sees a value that
    is no member, the oracle takes the minimum of all values and
    answers ``-1`` when that is none
    (``test_non_member_beside_a_member_counts_for_nothing``)."""
    for observation in cube["observations"]:
        for level in (EX.city, EX.kind):
            members = [value for value in observation[level]
                       if value in cube["members"][level]]
            if members:
                observation[level] = members
    return cube


OBSERVATIONS = st.lists(st.fixed_dictionaries({
    "subject": st.sampled_from(SUBJECTS),
    # observations of a second dataset share every predicate
    "dataset": st.sampled_from([EX.ds, EX.ds, EX.ds, EX.other]),
    EX.city: some(CITIES + [EX.nowhere], 3),
    EX.kind: some(KINDS + [Literal("k")], 2),
    EX.amount: some(PAYLOADS, 3),
    EX.weight: some(PAYLOADS, 2),
}), max_size=8, unique_by=lambda observation: observation["subject"])

CUBES = st.fixed_dictionaries({
    "observations": OBSERVATIONS,
    "members": st.fixed_dictionaries({
        EX.city: some(CITIES, 4), EX.region: some(REGIONS, 3),
        EX.country: some(COUNTRIES, 2), EX.kind: some(KINDS, 3)}),
    "broader": st.lists(st.tuples(
        st.sampled_from(CITIES + REGIONS),
        st.sampled_from(REGIONS + COUNTRIES + [EX.nowhere])),
        max_size=10, unique=True),
    "labels": st.lists(st.tuples(
        st.sampled_from(CITIES + REGIONS),
        st.sampled_from([EX.name, EX.code]), st.sampled_from(LABELS)),
        max_size=8, unique=True),
    # the store's physical states: how many observations are loaded
    # before a compaction (the rest are overlay rows), which are
    # restated in a second named graph (union dedup: unsorted
    # subjects), which are removed at the end (tombstones), and how
    # many terms are interned between observations (sparse ids)
    "compacted": st.integers(0, 8),
    "restated": st.sets(st.integers(0, 7)),
    "removed": st.sets(st.integers(0, 7), max_size=2),
    "filler": st.sampled_from([0, 0, 3, 40]),
}).map(members_only_beside_members)


def cube_endpoint(cube, flip: bool = False) -> LocalEndpoint:
    """The generated cube in a fresh endpoint; ``flip`` reverses every
    insertion order there is."""
    def ordered(items):
        return list(reversed(items)) if flip else list(items)

    endpoint = LocalEndpoint()
    graph = endpoint.dataset.graph(EX.facts)
    second = endpoint.dataset.graph(EX.restated)
    intern = endpoint.dataset.dictionary.encode
    described = [(member, qb4o.memberOf, level)
                 for level, members in cube["members"].items()
                 for member in members]
    described += [(child, SKOS.broader, parent)
                  for child, parent in cube["broader"]]
    described += cube["labels"]
    for triple in ordered(described):
        graph.add(*triple)
    observations = ordered(list(enumerate(cube["observations"])))
    for loaded, (number, observation) in enumerate(observations):
        if loaded == cube["compacted"]:
            graph.compact()
        for filler in range(cube["filler"]):
            intern(IRI(f"urn:filler:{number}:{filler}"))
        subject = observation["subject"]
        triples = [(subject, qb.dataSet, observation["dataset"])]
        triples += [(subject, predicate, value)
                    for predicate in (EX.city, EX.kind, EX.amount, EX.weight)
                    for value in observation[predicate]]
        for triple in ordered(triples):
            graph.add(*triple)
        if number in cube["restated"]:
            for triple in triples[:2]:
                second.add(*triple)
    for number, observation in observations:
        if number in cube["removed"]:
            graph.remove((observation["subject"], None, None))
    return endpoint


def assert_same_bytes(left, right):
    """Fact tables equal to the byte, dtype included."""
    for ours, theirs in ((left.facts.coordinates, right.facts.coordinates),
                         (left.facts.measures, right.facts.measures)):
        assert list(ours) == list(theirs)
        for iri, column in ours.items():
            assert column.dtype == theirs[iri].dtype, iri
            assert column.tobytes() == theirs[iri].tobytes(), iri


def assert_numbered_as_the_oracle(graph, predicate, obj):
    """``_by_value``'s order and ``locate`` equal the decode-and-sort
    oracle's: the same terms in number order, the same number for every
    interned id, for ids past the last one and for an overlay id."""
    ids, order, locate = _by_value(graph, predicate, obj)
    terms, expected_order, expected_locate = reference_by_value(
        graph, predicate, obj)
    decode = graph.dictionary.decode
    assert [decode(term_id) for term_id in ids[order].tolist()] \
        == [terms[at] for at in expected_order]
    probe = np.append(np.arange(len(graph.dictionary) + 3), OVERLAY_BASE)
    assert locate(probe).tolist() == expected_locate(probe).tolist()


def assert_same_dimension(left, right):
    assert left.bottom_members == right.bottom_members
    assert left.level_members == right.level_members
    assert left.attributes == right.attributes
    assert set(left.ancestor_maps) == set(right.ancestor_maps)
    for level, ancestor in left.ancestor_maps.items():
        assert ancestor.dtype == right.ancestor_maps[level].dtype
        assert ancestor.tobytes() == right.ancestor_maps[level].tobytes()


class TestGeneratedCubes:
    @settings(max_examples=200, deadline=None)
    @given(CUBES)
    def test_equal_to_the_oracles_in_both_insertion_orders(self, cube):
        schema = wide_schema()
        stars = []
        for flip in (False, True):
            endpoint = cube_endpoint(cube, flip)
            try:
                star = production(endpoint, schema)
                assert_same_bytes(star, oracle(endpoint, schema))
                graph = endpoint.dataset.union()
                assert_numbered_as_the_oracle(graph, qb.dataSet, EX.ds)
                for level in cube["members"]:
                    assert_numbered_as_the_oracle(graph, qb4o.memberOf, level)
                for iri, table in star.dimensions.items():
                    assert_same_dimension(table, reference_dimension(
                        graph, schema, iri, schema.bottom_level(iri)))
                rows = {observation["subject"]
                        for number, observation
                        in enumerate(cube["observations"])
                        if observation["dataset"] == EX.ds
                        and (number not in cube["removed"]
                             or number in cube["restated"])}
                assert star.facts.size == len(rows)
                stars.append(star)
            finally:
                endpoint.close()
        forward, flipped = stars
        assert_same_bytes(forward, flipped)
        for iri, table in forward.dimensions.items():
            assert_same_dimension(table, flipped.dimensions[iri])

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_dimension_tables_equal_the_walk_on_the_dirty_cube(self, order):
        endpoint = tiny_endpoint(order)
        star = production(endpoint, tiny_schema())
        assert_same_dimension(
            star.dimensions[EX.geoDim],
            reference_dimension(endpoint.dataset.union(), tiny_schema(),
                                EX.geoDim, EX.city))
        endpoint.close()

    def test_dimension_tables_equal_the_walk_on_demo(self, endpoint, schema):
        star = production(endpoint, schema)
        graph = endpoint.dataset.union()
        for iri, table in star.dimensions.items():
            assert_same_dimension(table, reference_dimension(
                graph, schema, iri, schema.bottom_level(iri)))


#: members sharing prefixes, non-ASCII ones, and an IRI whose value is
#: a blank node's ``str`` (``IRI("_:x")`` beside ``BNode("x")``)
MEMBERS = st.one_of(
    st.builds(lambda tail: EX[f"m/{tail}"], st.text("ab/é中", max_size=3)),
    st.builds(BNode, st.text("xzé", min_size=1, max_size=2)),
    st.sampled_from([IRI("_:x"), BNode("x"), IRI("A:city"), IRI("_:zzz"),
                     BNode("zzz")]))
#: batches of (term, made a member?): literals and non-members are only
#: interned, between the members
BATCHES = st.lists(st.lists(st.tuples(
    st.one_of(MEMBERS, st.builds(Literal, st.integers(0, 9))),
    st.booleans()), max_size=8), min_size=1, max_size=4)


class TestByValue:
    @settings(max_examples=200, deadline=None)
    @given(BATCHES, st.booleans())
    def test_equal_to_the_decode_and_sort_oracle(self, batches, named):
        """Numbered after every batch: the first builds the
        dictionary's value ranks, each later one extends them."""
        endpoint = LocalEndpoint()
        dataset = endpoint.dataset
        graph = dataset.graph(EX.members) if named else dataset.default
        for batch in batches:
            for term, member in batch:
                if member and not isinstance(term, Literal):
                    graph.add(term, qb4o.memberOf, EX.city)
                else:
                    dataset.dictionary.encode(term)
            assert_numbered_as_the_oracle(dataset.union(), qb4o.memberOf,
                                          EX.city)
        endpoint.close()


class TestEpochStamp:
    """The stamp keys the star aggregator's segment and
    ``FactColumns.epoch``: it is the dataset snapshot's epoch, so any
    write moves it."""

    def test_a_default_graph_write_raises_the_stamp(self):
        endpoint = tiny_endpoint()
        before = production(endpoint, tiny_schema()).epoch
        assert before == endpoint.dataset.snapshot().epoch > 0
        endpoint.dataset.default.add(EX.obs3, qb.dataSet, EX.ds)
        after = production(endpoint, tiny_schema()).epoch
        assert after == endpoint.dataset.snapshot().epoch > before
        endpoint.close()

    def test_alternating_named_graph_writes_each_raise_the_stamp(self):
        endpoint = LocalEndpoint()
        graphs = [endpoint.dataset.graph(EX.first),
                  endpoint.dataset.graph(EX.second)]
        stamps = [production(endpoint, tiny_schema()).epoch]
        for number in range(6):
            graphs[number % 2].add(EX[f"obs{number}"], qb.dataSet, EX.ds)
            stamps.append(production(endpoint, tiny_schema()).epoch)
        assert all(earlier < later
                   for earlier, later in zip(stamps, stamps[1:])), stamps
        endpoint.close()


# -- what the extractor calls -------------------------------------------------


def counted(monkeypatch, owner, name, when=lambda *args: True):
    """Count the calls of ``owner.name`` from here on (those whose
    positional arguments satisfy ``when``)."""
    original, calls = getattr(owner, name), []

    def counting(*args, **kwargs):
        if when(*args):
            calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return calls


def counted_joins(monkeypatch):
    """Count the ``np.searchsorted`` calls that look a whole column up:
    the storage tier's range reads search for one scalar each."""
    return counted(monkeypatch, np, "searchsorted",
                   lambda _keys, needles, *_: np.ndim(needles) > 0)


def clean_endpoint(doubled=None, filler: int = 0, rows: int = 40,
                   amounts: int = 0) -> LocalEndpoint:
    """``rows`` observations that keep IC-12 — one city, one amount
    (``amounts`` distinct literals, ``rows // 4`` unless given) each —
    but for ``doubled``, a property the first observation then carries
    a second value of; ``filler`` terms are interned ahead of every
    observation."""
    amounts = amounts or rows // 4
    endpoint = LocalEndpoint()
    graph = endpoint.dataset.default
    intern = endpoint.dataset.dictionary.encode
    for member in (EX.cityA, EX.cityB):
        graph.add(member, qb4o.memberOf, EX.city)
    for number in range(rows):
        for spare in range(filler):
            intern(IRI(f"urn:filler:{number}:{spare}"))
        subject = EX[f"obs{number:04d}"]
        graph.add(subject, qb.dataSet, EX.ds)
        graph.add(subject, EX.city, (EX.cityA, EX.cityB)[number % 2])
        graph.add(subject, EX.amount, Literal(number % amounts))
    if doubled == EX.city:
        graph.add(EX.obs0000, EX.city, EX.cityB)
    elif doubled == EX.amount:
        graph.add(EX.obs0000, EX.amount, Literal(5))
    graph.compact()
    return endpoint


class TestCallCounts:
    @pytest.mark.parametrize("doubled, sorts", [
        (None, 0), (EX.city, 1), (EX.amount, 1)])
    def test_ties_are_settled_only_where_they_exist(self, monkeypatch,
                                                    doubled, sorts):
        """An IC-12-clean cube is never sorted, hashed or ranked, and
        no observation is decoded; one doubled value costs the
        minimum-key path on that property alone."""
        endpoint = clean_endpoint(doubled)
        schema = tiny_schema()
        star, _ = extract_star_schema(endpoint, schema)
        reference = oracle(endpoint, schema)
        lexsorts = counted(monkeypatch, np, "lexsort")
        uniques = counted(monkeypatch, np, "unique")
        searches = counted_joins(monkeypatch)
        decodes = counted(monkeypatch, TermDictionary, "decode")
        _extract_facts(endpoint.dataset.union(), schema, star)
        monkeypatch.undo()
        assert len(lexsorts) == sorts
        assert not uniques and not searches  # dense ids: directories
        assert len(decodes) == 10  # the distinct amounts
        assert_same_bytes(star, reference)
        endpoint.close()

    @pytest.mark.parametrize("rows", [40, 400])
    def test_observations_are_never_decoded(self, monkeypatch, rows):
        """Ten times the observations, the same decodes: the two city
        members and the ten distinct amounts."""
        endpoint = clean_endpoint(rows=rows, amounts=10)
        decodes = counted(monkeypatch, TermDictionary, "decode")
        star, _ = extract_star_schema(endpoint, tiny_schema())
        monkeypatch.undo()
        assert star.facts.size == rows
        assert len(decodes) == 2 + 10
        endpoint.close()

    @settings(max_examples=60, deadline=None)
    @given(CUBES)
    def test_decodes_are_bounded_by_members_and_distinct_values(self, cube):
        """Members (a level on two roll-up paths is read twice), the
        attribute values and the distinct measure values — never a
        number that grows with the observations."""
        members = sum(map(len, cube["members"].values()))
        values = sum(
            len({value for observation in cube["observations"]
                 for value in observation[measure]})
            for measure in (EX.amount, EX.weight))
        endpoint = cube_endpoint(cube)
        with mock.patch.object(TermDictionary, "decode", autospec=True,
                               side_effect=TermDictionary.decode) as decode:
            extract_star_schema(endpoint, wide_schema())
        endpoint.close()
        assert decode.call_count <= 2 * members + len(cube["labels"]) + values

    def test_the_demo_cube_takes_the_clean_path(self, monkeypatch,
                                                endpoint, schema):
        star, _ = extract_star_schema(endpoint, schema)
        graph = endpoint.dataset.union()
        literals = {value for measure in schema.measures
                    for value in graph.objects(None, measure.iri)}
        lexsorts = counted(monkeypatch, np, "lexsort")
        uniques = counted(monkeypatch, np, "unique")
        decodes = counted(monkeypatch, TermDictionary, "decode")
        _extract_facts(graph, schema, star)
        monkeypatch.undo()
        assert not lexsorts and not uniques
        assert len(decodes) == len(literals)

    def test_sparse_ids_are_searched_and_their_span_never_allocated(
            self, monkeypatch):
        """Observation ids far apart in the dictionary exceed the
        directory bound: the join falls back to a sorted search, and
        the extraction's memory follows the rows, not the id span."""
        rows, filler = 400, 500
        endpoint = clean_endpoint(filler=filler, rows=rows)
        schema = tiny_schema()
        star, _ = extract_star_schema(endpoint, schema)
        reference = oracle(endpoint, schema)
        graph = endpoint.dataset.union()
        searches = counted_joins(monkeypatch)
        tracemalloc.start()
        try:
            _extract_facts(graph, schema, star)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert len(searches) == 2  # the city's and the amount's subjects
        span_bytes = 8 * rows * filler  # what a directory would take
        assert peak < span_bytes // 8, (peak, span_bytes)
        assert_same_bytes(star, reference)
        endpoint.close()


class TestFactColumns:
    def test_narrowing_and_roundtrip(self):
        endpoint = tiny_endpoint()
        star, _ = extract_star_schema(endpoint, tiny_schema())
        columns = star.fact_columns()
        assert columns.rows == star.facts.size
        assert columns.coordinates[EX.geoDim].dtype == np.int8
        assert columns.measures[EX.amount].dtype == np.float64
        assert not columns.coordinates[EX.geoDim].flags.writeable
        widened = columns.widened()
        assert_identical_tables = star.facts
        assert np.array_equal(widened.coordinates[EX.geoDim],
                              assert_identical_tables.coordinates[EX.geoDim])
        assert np.array_equal(widened.measures[EX.amount],
                              assert_identical_tables.measures[EX.amount],
                              equal_nan=True)
        assert columns.nbytes > 0
        endpoint.close()

    def test_code_dtype_guarded_narrowing(self):
        assert _code_dtype(100) == np.dtype(np.int8)
        assert _code_dtype(1000) == np.dtype(np.int16)
        assert _code_dtype(100_000) == np.dtype(np.int32)
        assert _code_dtype(2**40) == np.dtype(np.int64)
        # the ceiling itself must fit, sentinel included
        assert _code_dtype(np.iinfo(np.int8).max) == np.dtype(np.int8)
        assert _code_dtype(np.iinfo(np.int8).max + 1) == np.dtype(np.int16)

    def test_shm_export_attach_roundtrip(self):
        from repro.rdf import shm
        endpoint = tiny_endpoint()
        star, _ = extract_star_schema(endpoint, tiny_schema())
        star = type(star)(dataset=star.dataset, dimensions=star.dimensions,
                          facts=star.facts,
                          measure_aggregates=star.measure_aggregates,
                          epoch=7)
        columns = star.fact_columns()
        assert columns.epoch == 7
        arrays = {f"c:{EX.geoDim.value}": columns.coordinates[EX.geoDim],
                  f"m:{EX.amount.value}": columns.measures[EX.amount]}
        segment, manifest = shm.export_arrays(
            arrays, f"{shm.SEGMENT_PREFIX}test_facts_roundtrip", epoch=7)
        try:
            assert manifest.epoch == 7
            attached_segment, views = shm.attach_arrays(manifest)
            try:
                for key, array in arrays.items():
                    assert np.array_equal(views[key], array, equal_nan=True)
                    assert not views[key].flags.writeable
            finally:
                attached_segment.close()
        finally:
            segment.close()
            segment.unlink()
        endpoint.close()

    def test_shm_views_are_aligned_for_odd_row_counts(self):
        """Regression: arrays used to be laid back-to-back, so int8 /
        int16 codes ahead of a float64 measure left its view unaligned
        whenever the row count was not a multiple of 8."""
        from repro.rdf import shm
        for rows in (1, 3, 7, 9):
            arrays = {"c:a": np.arange(rows, dtype=np.int8),
                      "m:v": np.arange(rows, dtype=np.float64),
                      "c:b": np.arange(rows, dtype=np.int16),
                      "c:c": np.arange(rows, dtype=np.int32),
                      "m:w": np.full(rows, np.nan)}
            segment, manifest = shm.export_arrays(
                arrays, f"{shm.SEGMENT_PREFIX}test_aligned_{rows}")
            try:
                attached_segment, views = shm.attach_arrays(manifest)
                try:
                    end = 0
                    for spec in manifest.arrays:
                        view = views[spec.key]
                        assert view.flags.aligned, (rows, spec)
                        assert np.array_equal(view, arrays[spec.key],
                                              equal_nan=True)
                        assert spec.offset >= end  # no overlap
                        end = spec.offset + view.nbytes
                    assert manifest.nbytes >= end  # covers the payload
                finally:
                    attached_segment.close()
            finally:
                segment.close()
                segment.unlink()
