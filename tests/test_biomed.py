"""Biomedical benchmark (App. C): E2E pipeline + clinical queries."""
import pytest

from repro.bench import biomed_queries as BQ
from repro.core import api
from repro.core import nrc as N
from repro.core import nrc_interp as I

from tests.utils import check, rows_of


def test_pipeline_standard(biomed):
    """Steps 1–5 via the standard route; each step's materialized
    output feeds the next (the paper's analytics-pipeline setting)."""
    cat, types = biomed["cat"], dict(BQ.BASE_TYPES)
    for name, step in zip(BQ.STEP_NAMES, BQ.STEPS):
        e = step()
        df = api.standard_route(e, types, cat, opt="full")
        check(df, biomed["expected_steps"][name], f"std {name}")
        cat.add(name, df.cache())
        cat.tables[name].count()
        types[name] = N.infer_type(e, types)


@pytest.mark.parametrize("skew", [False, True])
def test_pipeline_shredded(biomed, skew):
    """Steps 1–5 via the shredded route; intermediate outputs stay
    shredded — no reconstruction between steps (§1's motivation)."""
    cat, types = biomed["cat"], dict(BQ.BASE_TYPES)
    for name, step in zip(BQ.STEP_NAMES, BQ.STEPS):
        e = step()
        run = api.shredded_route(e, types, name, cat, skew=skew)
        expected = biomed["expected_steps"][name]
        if name == "Connectivity":
            check(run.flat, expected, f"shred {name}")
        else:
            check(api.unshred_result(run), expected, f"shred {name}")
        types[name] = N.infer_type(e, types)


def test_final_connectivity_is_flat(biomed):
    t = N.infer_type(BQ.step5(), BQ.pipeline_types())
    assert N.is_flat(t)
    conn = biomed["expected_steps"]["Connectivity"]
    assert all(set(r) == {"gene", "score"} for r in conn)


@pytest.mark.parametrize("cname", ["C1", "C2", "C3"])
def test_clinical_standard(biomed, cname):
    e = BQ.CLINICAL[cname]()
    expected = I.evaluate(e, biomed["env"])
    df = api.standard_route(e, BQ.BASE_TYPES, biomed["cat"], opt="full")
    check(df, expected, f"std {cname}")


@pytest.mark.parametrize("cname", ["C1", "C2", "C3"])
def test_clinical_shredded(biomed, cname):
    e = BQ.CLINICAL[cname]()
    expected = I.evaluate(e, biomed["env"])
    run = api.shredded_route(
        e, BQ.BASE_TYPES, f"tc_{cname}", biomed["cat"]
    )
    check(api.unshred_result(run), expected, f"shred {cname}")


def test_c1_output_depth(biomed):
    e = BQ.clinical_c1()
    t = N.infer_type(e, BQ.BASE_TYPES)
    # sample → mutations → candidates → consequences: 3 bag levels
    lvl1 = t.elem.field("mutations").elem
    lvl2 = lvl1.field("candidates").elem
    lvl3 = lvl2.field("consequences").elem
    assert lvl3.names == ["conseq", "score"]


def test_sharing_query_equivalence(biomed):
    e = BQ.sharing_query()
    expected = I.evaluate(e, biomed["env"])
    df = api.standard_route(e, BQ.BASE_TYPES, biomed["cat"], opt="full")
    check(df, expected, "sharing std")
    run = api.shredded_route(e, BQ.BASE_TYPES, "tshare", biomed["cat"])
    check(api.unshred_result(run), expected, "sharing shred")


def test_sharing_dictionary_is_smaller(biomed):
    """App. D: the shredded candidates dictionary (shared annotations)
    holds no more tuples than the standard route's duplicated nested
    candidates — strictly fewer when samples share mutations."""
    from pyspark.sql import functions as F

    e = BQ.sharing_query()
    df = api.standard_route(e, BQ.BASE_TYPES, biomed["cat"], opt="full")
    std = df.select(F.explode("candidates")).count()
    run = api.shredded_route(e, BQ.BASE_TYPES, "tshare2", biomed["cat"])
    shred = run.shredded.dicts[("candidates",)].count()
    assert shred <= std


def test_occurrences_sharing_in_generator(biomed):
    """Samples share mutation ids — the premise of App. D."""
    occ = biomed["env"]["Occurrences"]
    ids = [o["mutationId"] for o in occ]
    assert len(set(ids)) < len(ids)


def test_pipeline_program_in_interpreter(biomed):
    """The whole E2E pipeline as one NRC Program, end to end."""
    p = N.Program()
    for name, step in zip(BQ.STEP_NAMES, BQ.STEPS):
        p.assign(name, step())
    out = I.run_program(p, {k: v for k, v in biomed["env"].items()})
    assert I.bags_equal(
        out["Connectivity"], biomed["expected_steps"]["Connectivity"]
    )
