"""Model construction, serialization, and interpretation enumeration."""

import hashlib
import json
import random
from types import MappingProxyType

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

from helpers import mo2_qubit, random_model

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


@pytest.mark.parametrize("fixture", [m_sr, m_cm, m_qbit, m_qutrit])
def test_a_models_own_fields_rebuild_it(fixture):
    # a Model holds tuples, dicts and frozensets, each accepted again
    m = fixture()
    again = make_model(m.states, m.universes, m.properties, m.extensions,
                       m.hilbert)
    assert again == m and dump_model(again) == dump_model(m)


def test_any_iterable_of_ids_and_any_mapping_is_accepted():
    # a generator extension is read once, so it is not read as empty
    m = make_model(
        iter(["S1", "S2"]),
        MappingProxyType({"S1": ("u1", "u2"), "S2": {"v1": 0}.keys()}),
        ("E", "F"),
        {"S1": MappingProxyType({"E": {"u1"}, "F": (x for x in ["u2"])}),
         "S2": {"E": frozenset({"v1"}), "F": ()}})
    assert dump_model(m) == dump_model(m_sr())


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


# sha256 of dump_model: the fixtures' bytes, and through build_qm_model's
# extensions the full, empty and fabricated cells of 40 MO2 qubits
_DUMP_SHA256 = {
    "m_sr": "b76da4c84878496e4990b1b4f2dd86e8f4e75c66f49c87c5cbb937833a8602ad",
    "m_cm": "a74740e586f850fc9f5ef9e9a09fc112852aa7bd81693ff841f413f0a3429bf6",
    "m_qbit": "0ffa4660bd70bd9d68fd834aabbcd3d9b88c8b97b3d55c12aaa4ad7724eee889",
    "m_qutrit": "b35b77032f50ea56a91f6eecba27e376aa82221ffc5e942fbee18625e434df87",
}
_MO2_DUMP_SHA256 = [
    "e0214b0aa560efa7c65cbc34c65f2ed5aef013d2fad1356371d990a2504af93e",
    "5d3d71f7a6ed6a361e89452904e32e778ec034def38cd7048622cfb2e41e5257",
    "4b5917d7540d6a44c1ded744dd2a96e123fd958d3b514e1f8beed5de5037f7fd",
    "ae1a5dc62b953cd61657fa5fb485de6f4ef55755a805803580b329baeb9f9cc0",
    "548eafec77c646eee22532b7f3f2b18d9ca10be29da17d43399a72336fdbf2c0",
    "c450009cbec8aa0b262a0491db19bae4aee6ab3700982852bfd748067161eb53",
    "cbd91746f56686ab1a9857273f3a5f7717b27ad5b5be06c819f6d53a5f3cfdff",
    "f692d176a8e890bc0088feea27583e6802dccf3fb944d6f123a964bbab0396cd",
    "7a9c9be37d44d95e3ddfec526586b4f82374eea20212378d42e57a4382c836a9",
    "40aecc03176742890c6ec2df79131505db22eeda3f4331a7606ab0c6508bf4d2",
    "fdc3a999d4c3bf6635b199faea0ae4731d187dd2fac0b52e989feb5ebc3d651f",
    "f5b0ef5315bcca860069e94a51dcbe9624cbf30464b8776adc06a8377de92eb9",
    "f8b1c2bce6c72f856292208c8585f9ca2b988e538cad020d3bea4e5556a41654",
    "469a1a5d0cb7aa84ba75fb7608f087561418eac8e6ead7d423a838660f9e513e",
    "08c44c96af082b66142999b9698aa1a0738035d8f639b72d89d3e5257667b709",
    "a3c3c304fcb1e115ee41be953ed332b2c7f51deccbcec46a96f1e3f945e729dc",
    "09f84ee1b288fbfe3b2313e63661a8bf68f9b5763088de289d903fea54b25462",
    "b7844c6b41870eab809e9f09a62f8af4906647796a1e2308e1874dea6816d6d3",
    "6e8288f19eb6f23e4e2af9f7fd630137fe9d98f3408b3b6dd492a4b8460e4812",
    "c5984c520950efce0ac94a4efd0030deb52c5afc7af05f89fa9ae56a646663f6",
    "7679d4b446e7e484c17e23b9bc4c3b61d24a49c5ff9a5b542a8034d033200f58",
    "74573696a688e4bd33d655da39b611264fa7fed2387024277172a6e4593ecd58",
    "6ef30cafb3ec02c5d0a973debefdf689e8c8240879c5f524143b80b624b5770c",
    "643ee65ee9dcc829cb3812ddc6226f76b9628ec496551800ca5730535cac9404",
    "fd998c090a13efa5a12c06dac1f85addb75e359c4720b3911fc443a70eb7e6fa",
    "e1a7995fadff01d7cd864bc23b1c86147df749bc4b1cbf5ce6e2210c6a67aca6",
    "b23b60cc723a6e1727fff17d733656d03a9f58b9d0a477d7b34b75de388278d0",
    "46a56644a992aec7121cd51bfad2f91cbcc37e1c7dbd291a63cce8aafa0e3590",
    "c48e927aa78f56e2877dbacdfc2521fa8f5699a9eb1d0f5d4b093799081cf8e1",
    "427b1150e6483b4472b3cd7c9fc8de7a498ec8a8a73c3fa53815e9347510f5e8",
    "b98333eac77e401ce950ccb490dfe8c56b9db62fe3caa3abf7f24d7838645dce",
    "2d547b0fa4cc9705ebc92d0b5eea8b730cc4ca75b33095801454d44ded1b3955",
    "27e68316623904da288e13048d0d64e8e3b4db9be6f231de0a4b5add16dfd1e9",
    "ec3173d36d39c1172ebb3dc041f9ae4c2e0255afa87f3e4e0307aac19fd48091",
    "de215eaec9195fe2b083d0e71e6e5aacd6ae99889e132ecaeebe11d2acd7ee22",
    "30f25bfd3f21b456f2fa0955e73af05efcef04edaa1d5937109a7e93899d21fe",
    "9bbd16a1d5dd6235fd2aa48925201926360734839e08502ef994ea359bf93b15",
    "4efd692cfe06cd38d4545793ed16d4d0f38233861e2ec6c54850a4290ffb9518",
    "0d737b452c001f5dad064f7248960764582e4ccb8fae30494762b3a945aa9890",
    "6f2147093aa85cd70bc43ab7d5613c8b914dbfa80b14c596fc308c65e064207a",
]


@pytest.mark.parametrize("fixture", [m_sr, m_cm, m_qbit, m_qutrit])
def test_fixture_dumps_are_pinned(fixture):
    text = dump_model(fixture())
    assert hashlib.sha256(text.encode()).hexdigest() \
        == _DUMP_SHA256[fixture.__name__]


@pytest.mark.parametrize("seed", range(40))
def test_mo2_dumps_are_pinned(seed):
    text = dump_model(mo2_qubit(seed))
    assert hashlib.sha256(text.encode()).hexdigest() == _MO2_DUMP_SHA256[seed]


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


def test_make_model_refuses_an_annotation_at_two_tolerances():
    # build_qm_model's annotation is kept, with the table it filled
    m = m_qbit()
    assert "table" in vars(m.hilbert)
    assert m.hilbert.table.certain("Ez+") == frozenset({"Sz+"})
    # no equal pair, but two tolerances: among the subspaces, or between
    # the rays and the subspaces
    subs = {"E0": Subspace.zero(2), "P": Subspace.ray([1, 0], tol=1e-6),
            "EI": Subspace.full(2)}
    for ray_tol, got in ((1e-9, "1e-09 and 1e-06"), (1e-6, "1e-06 and 1e-09")):
        ann = HilbertAnnotation(2, {"S": Subspace.ray([1, 0], tol=ray_tol)},
                                subs)
        with pytest.raises(SchemaError) as exc:
            make_model(["S"], {"S": ["a"]}, list(subs),
                       {"S": {e: [] for e in subs}}, hilbert=ann)
        assert str(exc.value) == (
            f"rays and subspaces must share one tolerance, got {got}")
    # at one tolerance the annotation is kept when it is in declaration
    # order, and rebuilt in that order when it is not
    subs["P"] = Subspace.ray([1, 0])
    ann = HilbertAnnotation(2, {"S": Subspace.ray([1, 0])}, subs)
    for props in (list(subs), list(reversed(subs))):
        m = make_model(["S"], {"S": ["a"]}, props,
                       {"S": {e: [] for e in subs}}, hilbert=ann)
        assert list(m.hilbert.property_subspaces) == props
        assert (m.hilbert is ann) == (props == list(subs))


def test_hilbert_annotation_coverage_enforced():
    ann = HilbertAnnotation(2, {"S1": Subspace.ray([1, 0])},
                            {"E": Subspace.ray([1, 0])})
    with pytest.raises(SchemaError):
        make_model(
            ["S1", "S2"], {"S1": ["a"], "S2": ["a"]}, ["E"],
            {"S1": {"E": []}, "S2": {"E": []}},
            hilbert=ann)
