"""Fine-tuning enrichment on dirty Linked Data (quasi-FDs).

"In the Linked Data dynamic context involving external and
non-controlled data sources, the fine-tuning parameters that QB2OLAP
offers are essential to deal with data quality issues, e.g., by
searching for quasi FDs (i.e., an FD with an allowed error threshold)."

This example degrades the reference graph (countries losing or
doubling their continent links) and shows how the quasi-FD threshold
decides whether the continent level is still discoverable — and what
the resulting hierarchy's real error rate is.

Run:  python examples/quasi_fd_tuning.py
"""

from repro.data import small_demo
from repro.data.namespaces import PROPERTY, REF_PROP
from repro.demo import PAPER_DIMENSION_NAMES
from repro.enrichment import EnrichmentConfig, EnrichmentSession
from repro.qb import (
    check_constraint,
    cube_constraint_checks,
    step_error_rates,
)
from repro.rdf.graph import UnionView


def discover(noise_rate: float, threshold: float):
    demo = small_demo(observations=1_000, noise_rate=noise_rate)
    session = EnrichmentSession(
        demo.endpoint, demo.dataset, demo.dsd,
        config=EnrichmentConfig(quasi_fd_threshold=threshold),
        dimension_names=PAPER_DIMENSION_NAMES)
    session.redefine()
    candidates = session.suggestions(PROPERTY.citizen)
    continent = next((c for c in candidates
                      if c.prop == REF_PROP.continent), None)
    return demo, session, continent


def main() -> None:
    print("noise | threshold | continent candidate?  (error rate)")
    print("------+-----------+-----------------------------------")
    for noise in (0.0, 0.10, 0.25):
        for threshold in (0.0, 0.15, 0.30):
            _, _, continent = discover(noise, threshold)
            if continent is None:
                verdict = "rejected"
            else:
                verdict = (f"{continent.kind.upper()} "
                           f"(error={continent.profile.fd_error:.0%})")
            print(f" {noise:4.0%} |   {threshold:5.0%}   | {verdict}")

    print("\nAccepting a quasi-FD and materializing the hierarchy:")
    demo, session, continent = discover(0.25, 0.30)
    assert continent is not None
    session.add_level(PROPERTY.citizen, continent)
    session.generate()
    endpoint, dsd = demo.endpoint, session.schema.dsd
    cube = UnionView(endpoint.dataset, [
        endpoint.graph(session.schema_graph),
        endpoint.graph(session.instance_graph)]).copy()
    for (child, parent), rate in step_error_rates(cube, dsd).items():
        print(f"  step {child.local_name()} -> {parent.local_name()}: "
              f"{rate:.0%} of members lack a single parent")
    ok = not any(check_constraint(cube, check) for check
                 in cube_constraint_checks(dsd, functional_tolerance=0.30))
    print(f"  instance validation within tolerance: {ok}")
    print("\n(The multi_parent_policy config decides whether such members"
          "\n keep one deterministic parent or all of them.)")


if __name__ == "__main__":
    main()
