"""Model construction, serialization, and interpretation enumeration."""

import json
import random

import pytest

import qlprop.model as model
from qlprop.errors import (
    DuplicateId,
    EnumerationCapExceeded,
    ExtensionOutOfUniverse,
    InvalidTolerance,
    RankError,
    SchemaError,
    UniverseTooSmall,
)
from qlprop.hilbert import Subspace
from qlprop.model import (
    HilbertAnnotation,
    build_qm_model,
    check_cms,
    default_interpretation,
    dump_model,
    enumerate_interpretations,
    interpretation_count,
    load_model,
    m_cm,
    m_qbit,
    m_qutrit,
    m_sr,
    make_model,
)

from helpers import random_model

# ---------------------------------------------------------------------------
# construction and validation


def test_m_sr_shape():
    m = m_sr()
    assert m.states == ("S1", "S2")
    assert m.universe("S1") == ("u1", "u2")
    assert m.universe("S2") == ("v1",)
    assert m.extension("S1", "E") == frozenset({"u1"})
    assert m.extension("S1", "F") == frozenset({"u2"})
    assert m.extension("S2", "E") == frozenset({"v1"})
    assert m.extension("S2", "F") == frozenset()


def test_duplicate_state_rejected():
    with pytest.raises(DuplicateId):
        make_model(["S", "S"], {"S": ["a"]}, ["E"], {"S": {"E": []}})


def test_duplicate_object_rejected():
    with pytest.raises(DuplicateId):
        make_model(["S"], {"S": ["a", "a"]}, ["E"], {"S": {"E": []}})


def test_extension_outside_universe_rejected():
    with pytest.raises(ExtensionOutOfUniverse):
        make_model(["S"], {"S": ["a"]}, ["E"], {"S": {"E": ["b"]}})


def test_missing_pieces_rejected():
    with pytest.raises(SchemaError):
        make_model([], {}, ["E"], {})
    with pytest.raises(SchemaError):
        make_model(["S"], {"S": []}, ["E"], {"S": {"E": []}})
    with pytest.raises(SchemaError):
        make_model(["S"], {"S": ["a"]}, [], {"S": {}})
    with pytest.raises(SchemaError):
        make_model(["S"], {"S": ["a"]}, ["E"], {})
    with pytest.raises(SchemaError):
        make_model(["S"], {"S": ["a"]}, ["E"], {"S": {"E": [], "X": []}})


# ---------------------------------------------------------------------------
# interpretation enumeration (oracle: explicit product count)


def test_interpretation_count_matches_enumeration():
    rng = random.Random(11)
    for _ in range(30):
        m = random_model(rng)
        expected = 1
        for s in m.states:
            expected *= len(m.universe(s))
        assert interpretation_count(m) == expected
        listed = list(enumerate_interpretations(m))
        assert len(listed) == expected
        assert len({tuple(sorted(i.items())) for i in listed}) == expected
        for interp in listed:
            assert set(interp) == set(m.states)
            for s, o in interp.items():
                assert o in m.universe(s)


def test_interpretation_count_fixed():
    assert interpretation_count(m_sr()) == 2
    assert interpretation_count(m_cm()) == 2
    assert interpretation_count(m_qbit()) == 16


def test_enumeration_cap():
    m = make_model(
        [f"S{i}" for i in range(8)],
        {f"S{i}": [f"o{j}" for j in range(10)] for i in range(8)},
        ["E"],
        {f"S{i}": {"E": []} for i in range(8)})
    assert interpretation_count(m) == 10 ** 8
    with pytest.raises(EnumerationCapExceeded):
        next(iter(enumerate_interpretations(m, cap=10 ** 6)))


def test_default_interpretation():
    m = m_sr()
    assert default_interpretation(m) == {"S1": "u1", "S2": "v1"}
    assert default_interpretation(m, {"S1": "u2"}) == {"S1": "u2", "S2": "v1"}
    with pytest.raises(SchemaError):
        default_interpretation(m, {"S9": "u1"})
    with pytest.raises(SchemaError):
        default_interpretation(m, {"S1": "v1"})


# ---------------------------------------------------------------------------
# classical-mechanics shape detection


def test_check_cms():
    assert check_cms(m_cm()) == (True, None)
    ok, witness = check_cms(m_sr())
    assert not ok and witness == ("S1", "E")
    ok, witness = check_cms(m_qbit())
    assert not ok and witness == ("Sz+", "Ex+")


# ---------------------------------------------------------------------------
# serialization round-trip


@pytest.mark.parametrize("fixture", [m_sr, m_cm, m_qbit, m_qutrit])
def test_json_round_trip(fixture):
    m = fixture()
    again = load_model(dump_model(m))
    assert again.states == m.states
    assert all(again.universe(s) == m.universe(s) for s in m.states)
    assert again.properties == m.properties
    for s in m.states:
        for e in m.properties:
            assert again.extension(s, e) == m.extension(s, e)
    if m.hilbert is None:
        assert again.hilbert is None
    else:
        assert again.hilbert.dim == m.hilbert.dim
        for s in m.states:
            assert again.hilbert.state_rays[s] == m.hilbert.state_rays[s]
        for e in m.properties:
            assert again.hilbert.property_subspaces[e] \
                == m.hilbert.property_subspaces[e]


def test_load_rejects_unknown_top_level_key():
    doc = json.loads(dump_model(m_sr()))
    doc["extra"] = 1
    with pytest.raises(SchemaError):
        load_model(json.dumps(doc))


def test_load_rejects_malformed_vector():
    doc = json.loads(dump_model(m_qbit()))
    doc["hilbert"]["state_rays"]["Sz+"] = [[1.0], [0.0]]  # not [re, im] pairs
    with pytest.raises(SchemaError):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("key", ["state_rays", "property_subspaces"])
def test_load_rejects_hilbert_map_given_as_array(key):
    doc = json.loads(dump_model(m_qbit()))
    doc["hilbert"][key] = list(doc["hilbert"][key].values())
    with pytest.raises(SchemaError, match=f"'hilbert.{key}' must be an object"):
        load_model(json.dumps(doc))


def test_load_rejects_boolean_dim():
    doc = json.loads(dump_model(m_qbit()))
    doc["hilbert"]["dim"] = True
    with pytest.raises(SchemaError, match="'hilbert.dim' must be a positive"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_load_rejects_non_finite_ray_entry(bad):
    doc = json.loads(dump_model(m_qbit()))
    doc["hilbert"]["state_rays"]["Sz+"] = [[1.0, 0.0], [bad, 0.0]]
    text = json.dumps(doc)  # writes NaN / Infinity, which JSON parsing accepts
    with pytest.raises(SchemaError, match=r"state_rays\['Sz\+'\]\[1\] must be "
                       r"a \[re, im\] pair of finite numbers"):
        load_model(text)
    doc["hilbert"]["state_rays"]["Sz+"] = [[1.0, 0.0], [0.0, 0.0]]
    doc["hilbert"]["property_subspaces"]["Ez+"] = [[[bad, 0.0], [0.0, 0.0]]]
    with pytest.raises(SchemaError, match=r"property_subspaces\['Ez\+'\]"):
        load_model(json.dumps(doc))


def test_load_rejects_boolean_vector_entries():
    doc = json.loads(dump_model(m_qbit()))
    doc["hilbert"]["state_rays"]["Sz+"] = [[True, False], [False, False]]
    with pytest.raises(SchemaError, match=r"state_rays\['Sz\+'\]\[0\]"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("fixture", [m_sr, m_cm, m_qbit, m_qutrit])
def test_dump_load_dump_is_byte_stable(fixture):
    text = dump_model(fixture())
    assert dump_model(load_model(text)) == text


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_load_scales_a_huge_ray_without_overflow():
    doc = json.loads(dump_model(m_qbit()))
    doc["hilbert"]["state_rays"]["Sx+"] = [[1e308, 0.0], [1e308, 0.0]]
    m = load_model(json.dumps(doc))
    assert m.hilbert.state_rays["Sx+"] == Subspace.ray([1.0, 1.0])


def test_load_rejects_list_in_extension():
    doc = json.loads(dump_model(m_sr()))
    doc["extensions"]["S1"]["E"] = [["u1"]]
    with pytest.raises(SchemaError, match=r"extension of \('S1', 'E'\) must "
                       r"list object ids, got \['u1'\]"):
        load_model(json.dumps(doc))


def test_load_rejects_number_in_extension():
    doc = json.loads(dump_model(m_sr()))
    doc["extensions"]["S1"]["E"] = [1]
    with pytest.raises(SchemaError, match=r"extension of \('S1', 'E'\) must "
                       r"list object ids, got 1$"):
        load_model(json.dumps(doc))


def test_load_rejects_non_utf8_bytes():
    data = dump_model(m_sr()).replace("u1", "u\u00e9").encode("latin-1")
    with pytest.raises(SchemaError, match="model file is not UTF-8"):
        load_model(data)


def test_load_rejects_deeply_nested_json():
    with pytest.raises(SchemaError, match="nested too deeply"):
        load_model("[" * 100_000 + "]" * 100_000)


def test_load_rejects_integer_beyond_float_range():
    doc = json.loads(dump_model(m_qbit()))
    doc["hilbert"]["state_rays"]["Sz+"] = [[10 ** 400, 0], [0, 0]]
    with pytest.raises(SchemaError, match=r"state_rays\['Sz\+'\]\[0\] must be "
                       r"a \[re, im\] pair of finite numbers"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("field", ["state_rays['Sx+']",
                                   "property_subspaces['Ex-']"])
@pytest.mark.parametrize("bad, shown", [
    ([True, 0.0], "[True, 0.0]"),
    ([float("nan"), 0.0], "[nan, 0.0]"),
    ([float("inf"), 0.0], "[inf, 0.0]"),
    ([10 ** 400, 0.0], f"[{10 ** 400}, 0.0]"),
    ([0.5, 0.0, 0.0], "[0.5, 0.0, 0.0]"),
    (0.5, "0.5"),
])
def test_one_array_vector_path_keeps_the_per_vector_errors(field, bad, shown):
    # a file whose vectors fail the one structural check is read vector
    # by vector, so the error names the first bad pair as before
    doc = json.loads(dump_model(m_qbit()))
    h = doc["hilbert"]
    vec = (h["state_rays"]["Sx+"] if field.startswith("state_rays")
           else h["property_subspaces"]["Ex-"][0])
    vec[1] = bad
    with pytest.raises(SchemaError) as exc:
        load_model(json.dumps(doc))
    assert type(exc.value) is SchemaError
    assert str(exc.value) == (f"{field}[1] must be a [re, im] pair of finite "
                              f"numbers, got {shown}")


@pytest.mark.parametrize("fixture", [m_qbit, m_qutrit])
def test_well_formed_vectors_are_read_as_one_array(fixture, monkeypatch):
    calls = []
    real = model._as_complex_vector
    monkeypatch.setattr(model, "_as_complex_vector",
                        lambda *a: calls.append(a) or real(*a))
    text = dump_model(fixture())
    assert dump_model(load_model(text)) == text
    assert calls == []


def test_load_rejects_overlong_integer_literal():
    text = dump_model(m_qbit()).replace('"dim": 2', '"dim": ' + "9" * 5000)
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_model(text)


def test_load_rejects_bad_json():
    with pytest.raises(SchemaError):
        load_model("not json at all {")


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, 0.0,
                                 1e-17, 2e-3, 5, "abc", None])
def test_load_rejects_bad_tolerance(tol):
    with pytest.raises(InvalidTolerance):
        load_model(dump_model(m_qbit()), tol=tol)


def test_load_accepts_tolerance_range_ends():
    for tol in (1e-12, 1e-3):
        assert load_model(dump_model(m_qutrit()), tol=tol).hilbert is not None


# ---------------------------------------------------------------------------
# quantum model building


def test_qbit_born_extensions_frozen():
    m = m_qbit()
    full = frozenset({"o1", "o2"})
    half = frozenset({"o1"})
    none = frozenset()
    expect = {
        "E0": {"Sz+": none, "Sz-": none, "Sx+": none, "Sx-": none},
        "EI": {"Sz+": full, "Sz-": full, "Sx+": full, "Sx-": full},
        "Ez+": {"Sz+": full, "Sz-": none, "Sx+": half, "Sx-": half},
        "Ez-": {"Sz+": none, "Sz-": full, "Sx+": half, "Sx-": half},
        "Ex+": {"Sz+": half, "Sz-": half, "Sx+": full, "Sx-": none},
        "Ex-": {"Sz+": half, "Sz-": half, "Sx+": none, "Sx-": full},
    }
    for e, row in expect.items():
        for s, ext in row.items():
            assert m.extension(s, e) == ext, (s, e)


def test_qbit_determinate_cells_follow_subspace_geometry():
    m = m_qbit()
    ann = m.hilbert
    for s in m.states:
        ray = ann.state_rays[s]
        for e in m.properties:
            sub = ann.property_subspaces[e]
            from qlprop.hilbert import contains, ortho
            if contains(sub, ray):
                assert m.extension(s, e) == frozenset(m.universe(s))
            elif contains(ortho(sub), ray):
                assert m.extension(s, e) == frozenset()


def test_random_policy_is_seed_deterministic():
    kw = dict(
        dim=2,
        rays={"Sz+": [1.0, 0.0], "Sx+": [0.7071067811865476] * 2},
        subspaces={"Ez+": [[1.0, 0.0]], "Ez-": [[0.0, 1.0]]},
        universe_size=4, policy="random")
    a = build_qm_model(seed=7, **kw)
    b = build_qm_model(seed=7, **kw)
    for s in a.states:
        for e in a.properties:
            assert a.extension(s, e) == b.extension(s, e)
    # indeterminate cells must still be proper nonempty subsets
    for m in (a, b):
        ext = m.extension("Sx+", "Ez+")
        assert 0 < len(ext) < 4


def test_universe_too_small():
    # fully determinate geometry is fine with one object per state
    small = build_qm_model(
        dim=2, rays={"S": [1.0, 0.0]}, subspaces={"E": [[1.0, 0.0]]},
        universe_size=1)
    assert small.extension("S", "E") == frozenset({"o1"})
    # an indeterminate cell needs room for a proper nonempty subset
    with pytest.raises(UniverseTooSmall):
        build_qm_model(
            dim=2, rays={"S": [0.6, 0.8]}, subspaces={"E": [[1.0, 0.0]]},
            universe_size=1)


def test_qm_model_rejects_unnormalizable_ray():
    with pytest.raises(RankError):
        build_qm_model(
            dim=2, rays={"S": [0.0, 0.0]}, subspaces={"E": [[1.0, 0.0]]},
            universe_size=2)


def test_annotation_follows_declaration_order():
    # the property table searches properties in declaration order, so the
    # model stores its annotation in that order whatever the file's order
    doc = json.loads(dump_model(m_qbit()))
    h = doc["hilbert"]
    h["property_subspaces"] = dict(reversed(h["property_subspaces"].items()))
    h["state_rays"] = dict(reversed(h["state_rays"].items()))
    m = load_model(json.dumps(doc))
    assert tuple(m.hilbert.property_subspaces) == m.properties
    assert tuple(m.hilbert.state_rays) == m.states


def test_hilbert_annotation_coverage_enforced():
    ann = HilbertAnnotation(2, {"S1": Subspace.ray([1, 0])},
                            {"E": Subspace.ray([1, 0])})
    with pytest.raises(SchemaError):
        make_model(
            ["S1", "S2"], {"S1": ["a"], "S2": ["a"]}, ["E"],
            {"S1": {"E": []}, "S2": {"E": []}},
            hilbert=ann)
