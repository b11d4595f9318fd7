"""Exit codes, determinism, and file handling of the command line."""

import copy
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endatlas.cli import main
from endatlas.errors import CapExceeded, InternalConsistencyError, InvalidInput
from endatlas.serialize import datum_to_dict, dumps

from conftest import a2_rotation_data


@pytest.fixture
def rotation_files(tmp_path, a2):
    d1, d2, _ = a2_rotation_data(a2)
    p1 = tmp_path / "t1.json"
    p2 = tmp_path / "t2.json"
    p1.write_text(dumps(datum_to_dict(d1)))
    p2.write_text(dumps(datum_to_dict(d2)))
    return str(p1), str(p2)


def test_classify_json(capsys):
    assert main(["classify", "--type", "A1", "--galois", "c2:inner"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class_count"] == 2


def test_classify_trivial(capsys):
    assert main(["classify", "--type", "A1", "--galois", "trivial"]) == 0
    assert json.loads(capsys.readouterr().out)["class_count"] == 1


def test_classify_invalid_type(capsys):
    assert main(["classify", "--type", "Z9", "--galois", "trivial"]) == 2


def test_classify_incompatible_galois(capsys):
    assert main(["classify", "--type", "C3", "--galois", "c2:outer"]) == 2


def test_classify_markdown(capsys):
    assert main(["classify", "--type", "C3", "--galois", "c2:inner", "--format", "md"]) == 0
    md = capsys.readouterr().out
    assert md.startswith("# Elliptic classes for C3")
    assert "| 0 |" in md


def test_classify_deterministic(capsys):
    main(["classify", "--type", "A2", "--galois", "c3:inner"])
    first = capsys.readouterr().out
    main(["classify", "--type", "A2", "--galois", "c3:inner"])
    assert capsys.readouterr().out == first


EXPECTED = Path(__file__).resolve().parents[1] / "endbench" / "expected.json"


@pytest.mark.parametrize(
    "type_name,spec",
    [("E8", "trivial"), ("D4", "s3"), ("C3", "c2:inner"), ("A5", "c2:outer"), ("E6", "c3:inner")],
)
def test_classify_bytes_match_recorded_digests(type_name, spec, capsys):
    """The JSON tables are byte-identical to the recorded sha256 digests."""
    want = json.loads(EXPECTED.read_text(encoding="utf-8"))["classify"][f"{type_name}/{spec}"]
    assert main(["classify", "--type", type_name, "--galois", spec, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == want


def test_equiv_same_file(rotation_files, capsys):
    p1, _ = rotation_files
    assert main(["equiv", p1, p1]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["equivalent"] is True


def test_equiv_inequivalent_pair(rotation_files, capsys):
    p1, p2 = rotation_files
    assert main(["equiv", p1, p2]) == 1
    assert json.loads(capsys.readouterr().out) == {"equivalent": False}


def test_equiv_malformed_fraction(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"type": "A2", "galois": "trivial", '
        '"s": {"torsion": ["1/0", "0"]}, "cocycle": {}}'
    )
    assert main(["equiv", str(bad), str(bad)]) == 2


def test_equiv_mismatched_models(rotation_files, tmp_path, capsys):
    p1, _ = rotation_files
    other = tmp_path / "other.json"
    other.write_text(
        '{"type": "A2", "galois": "trivial", '
        '"s": {"torsion": ["0", "0"]}, "cocycle": {}}'
    )
    assert main(["equiv", p1, str(other)]) == 2


def test_equiv_mismatched_types(tmp_path, capsys):
    """An A2 datum against a C2 datum is refused by ``equivalent`` (exit 2)."""
    paths = []
    for name in ("A2", "C2"):
        path = tmp_path / f"{name}.json"
        path.write_text(
            f'{{"type": "{name}", "galois": "trivial", '
            '"s": {"torsion": ["0", "0"]}, "cocycle": {}}'
        )
        paths.append(str(path))
    assert main(["equiv", *paths]) == 2
    assert "different root systems" in capsys.readouterr().err


def test_equiv_refuses_a_float_torsion_value(tmp_path, capsys):
    """0.3333333333333333 would otherwise parse as 3333333333333333/10^16."""
    bad = tmp_path / "float.json"
    bad.write_text(
        '{"type": "A2", "galois": "trivial", '
        '"s": {"torsion": [0.3333333333333333, 0]}, "cocycle": {}}'
    )
    assert main(["equiv", str(bad), str(bad)]) == 2
    assert "float" in capsys.readouterr().err


def test_equiv_singular_cocycle_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "singular.json"
    bad.write_text(
        '{"type": "A2", "galois": "c2:inner", '
        '"s": {"torsion": ["0", "0"]}, "cocycle": {"g": [[1, 1], [1, 1]]}}'
    )
    assert main(["equiv", str(bad), str(bad)]) == 2
    assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize(
    "type_str,value",
    [
        ("A2", [[1]]),
        ("A2", [5, 0, 1]),
        ("A2", "x"),
        ("A2", [[1, 0], [0, 1], [1, 1]]),
        ("A2", [[1, 1], [0, 1]]),  # unimodular, fixes s = 1, permutes no roots
        ("C3", [2, 1, 0, 3]),  # swaps nodes of marks 1 and 2
    ],
    ids=["one-row", "not-a-permutation", "string", "extra-row", "off-the-roots",
         "off-the-diagram"],
)
def test_equiv_malformed_cocycle_value_is_an_input_error(tmp_path, capsys, type_str, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "type": type_str, "galois": "c2:inner",
        "s": {"torsion": ["0"] * int(type_str[1:])}, "cocycle": {"g": value},
    }))
    assert main(["equiv", str(bad), str(bad)]) == 2


# A2 over Z/2 acting by the diagram flip, inline model, nontrivial cocycle
OUTER_DATUM = {
    "type": "A2",
    "galois": {"elements": ["e", "g"], "table": [[0, 1], [1, 0]], "action": {"g": [2, 1]}},
    "s": {"torsion": ["1/2", "0"], "free": [[], []]},
    "cocycle": {"g": [[0, -1], [-1, 0]]},
}
# B2 with a free part, so equivalence goes through the finite-order reduction
FREE_DATUM = {
    "type": "B2",
    "galois": {"elements": ["e", "g"], "table": [[0, 1], [1, 0]]},
    "s": {"torsion": ["1/4", "0"], "free": [["1"], ["0"]]},
    "cocycle": {"g": [[1, 0], [0, 1]]},
}


@pytest.mark.parametrize(
    "path,value",
    [
        (("cocycle",), "ab"),
        (("galois", "action", "g"), 5),
        (("galois", "table"), [[0, "x"], [1, 0]]),
        (("s", "free"), 5),
    ],
    ids=["cocycle-string", "action-int", "table-string-entry", "free-int"],
)
def test_equiv_malformed_datum_is_an_input_error(tmp_path, capsys, path, value):
    data = copy.deepcopy(OUTER_DATUM)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["equiv", str(bad), str(bad)]) == 2


@pytest.mark.parametrize(
    "data",
    [
        {"type": "A2", "galois": "trivial", "s": {"torsion": "12"}},
        {"type": "A1", "galois": "c2:inner", "s": {"torsion": ["1/2"]},
         "cocycle": {"g": [[True]]}},
        {"type": "A1", "galois": "c2:inner", "s": {"torsion": ["1/2"]},
         "cocycle": {"g": [True, False]}},
        {"type": "A1", "galois": {"elements": ["e", "g"], "table": [[0, True], [True, 0]]},
         "s": {"torsion": ["1/2"]}},
    ],
    ids=["torsion-string", "cocycle-bool-rows", "cocycle-bool-permutation", "table-bools"],
)
def test_equiv_json_booleans_and_strings_are_input_errors(tmp_path, capsys, data):
    """JSON true/false are not integers and a string is not a list, though
    Python counts bools as ints and iterates strings."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["equiv", str(bad), str(bad)]) == 2


@pytest.mark.parametrize(
    "content",
    ['{"elements": ["e", "g"], "table": [[0, "x"], [1, 0]]}', '{"elements": ["e", "g"], "tab', None],
    ids=["table-string-entry", "truncated-json", "directory"],
)
def test_classify_malformed_galois_table_is_an_input_error(tmp_path, capsys, content):
    path = tmp_path / "model.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    assert main(["classify", "--type", "A1", "--galois", f"table:{path}"]) == 2


def test_equiv_of_the_fuzz_seeds_is_reflexive(tmp_path, capsys):
    for i, data in enumerate((OUTER_DATUM, FREE_DATUM)):
        f = tmp_path / f"d{i}.json"
        f.write_text(json.dumps(data))
        assert main(["equiv", str(f), str(f)]) == 0


def _paths(obj, prefix=()):
    """Every key path into nested dicts and lists, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


JUNK = st.one_of(
    st.integers(-3, 6),
    st.integers(),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-2, 4), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(-1, 3), max_size=2),
    st.none(),
)


@st.composite
def mutated_data(draw):
    data = copy.deepcopy(draw(st.sampled_from([OUTER_DATUM, FREE_DATUM])))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(JUNK)
    return data


@settings(max_examples=300, deadline=None)
@given(mutated_data())
def test_equiv_on_mutated_data_exits_cleanly(tmp_path_factory, data):
    """A datum file with junk at random places: equiv of the file with
    itself answers equivalent (0), or refuses it with exit 2 or 3."""
    f = tmp_path_factory.mktemp("fuzz") / "d.json"
    f.write_text(json.dumps(data))
    assert main(["equiv", str(f), str(f)]) in (0, 2, 3)


def test_classify_rank_beyond_the_cap_exits_quickly(monkeypatch, capsys):
    def generate(self):
        raise AssertionError("the roots were generated")

    monkeypatch.setattr("endatlas.rootsys.RootSystem._generate_roots", generate)
    assert main(["classify", "--type", "A40", "--galois", "trivial"]) == 3


@pytest.mark.parametrize(
    "error,code",
    [(InvalidInput, 2), (CapExceeded, 3), (InternalConsistencyError, 4)],
)
def test_equiv_error_exit_codes(rotation_files, monkeypatch, capsys, error, code):
    def fail(d1, d2):
        raise error("injected")

    monkeypatch.setattr("endatlas.cli.equivalent", fail)
    p1, p2 = rotation_files
    assert main(["equiv", p1, p2]) == code


def test_equiv_missing_file(capsys):
    assert main(["equiv", "/nonexistent/a.json", "/nonexistent/b.json"]) == 2


def test_verify_bijection(capsys):
    assert main([
        "verify", "--suite", "bijection", "--type", "A2",
        "--galois", "c3:inner", "--max-order", "6",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["details"]["classes"] == 3


def test_verify_local_global(capsys):
    assert main([
        "verify", "--suite", "local-global", "--type", "A1",
        "--galois", "c2:inner", "--max-order", "4",
    ]) == 0


def test_verify_shapiro_on_b3(capsys):
    """The S3 index-3 configuration induces B3 x B3 x B3, |W| = 110 592,
    beyond the reach of a search over W."""
    assert main(["verify", "--suite", "shapiro", "--type", "B3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["details"]["configurations"] == 4


def test_verify_cap_policy(capsys):
    assert main([
        "verify", "--suite", "bijection", "--type", "E8",
        "--galois", "trivial", "--max-order", "2",
    ]) == 3


@pytest.mark.parametrize("suite, bound", [
    ("bijection", "-3"),
    ("local-global", "-2"),
    ("bijection", "0"),
    ("local-global", "0"),
])
def test_verify_nonpositive_max_order_is_an_input_error(suite, bound, capsys):
    """A bound below 1 neither falls back to the default nor runs over an
    empty grid."""
    assert main([
        "verify", "--suite", suite, "--type", "A2",
        "--galois", "trivial", "--max-order", bound,
    ]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("suite, cap", [
    ("bijection", "0"),
    ("bijection", "-5"),
    ("local-global", "0"),
    ("local-global", "-5"),
])
def test_verify_nonpositive_cap_is_an_input_error(suite, cap, capsys):
    """A cap below 1 is refused, not reported as exceeded."""
    assert main([
        "verify", "--suite", suite, "--type", "A1",
        "--galois", "trivial", "--cap-orbit", cap,
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not a positive integer" in captured.err


@pytest.mark.parametrize("argv, unread", [
    (["--suite", "bijection", "--type", "A1", "--galois", "trivial", "--places", "e"],
     "--places"),
    (["--suite", "reduction", "--type", "E8", "--galois", "bogus"], "--type, --galois"),
    (["--suite", "reduction", "--cap-orbit", "1000000"], "--cap-orbit"),
    (["--suite", "shapiro", "--galois", "bogus", "--max-order", "3"],
     "--galois, --max-order"),
])
def test_verify_refuses_flags_its_suite_never_reads(argv, unread, capsys):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.strip().endswith(f"does not read {unread}")


def test_verify_empty_places_is_an_input_error(capsys):
    """An empty --places lists no place; it does not fall back to the plain suite."""
    assert main([
        "verify", "--suite", "local-global", "--type", "A1",
        "--galois", "trivial", "--places", "",
    ]) == 2
    assert capsys.readouterr().out == ""


def test_verify_local_global_reads_every_flag(capsys):
    """local-global reads all of them: an explicit default cap and order
    bound give the bytes of the defaults."""
    args = ["verify", "--suite", "local-global", "--type", "A2",
            "--galois", "c3:inner", "--places", "e"]
    assert main(args) == 0
    default = capsys.readouterr().out
    assert main(args + ["--cap-orbit", "1000000", "--max-order", "6"]) == 0
    assert capsys.readouterr().out == default


def test_verify_restricted_places_certificate(capsys):
    assert main([
        "verify", "--suite", "local-global", "--type", "A2",
        "--galois", "c3:inner", "--places", "e",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"] is not None


def test_classify_huge_cyclic_preset_hits_the_cap(monkeypatch, capsys):
    def build(n):
        raise AssertionError("the cyclic table was built")

    monkeypatch.setattr("endatlas.galois._cyclic", build)
    assert main(["classify", "--type", "A1", "--galois", "c1000000:inner"]) == 3


def test_classify_huge_galois_table_file_hits_the_cap(tmp_path, monkeypatch, capsys):
    n = 101  # n^3 just above the default work cap
    table = {
        "elements": [f"g{i}" for i in range(n)],
        "table": [[(i + j) % n for j in range(n)] for i in range(n)],
    }
    path = tmp_path / "c101.json"
    path.write_text(json.dumps(table))

    def build(*args, **kwargs):
        raise AssertionError("the table was checked")

    monkeypatch.setattr("endatlas.galois.GaloisModel", build)
    assert main(["classify", "--type", "A1", "--galois", f"table:{path}"]) == 3


def test_verify_needs_type(capsys):
    assert main(["verify", "--suite", "bijection"]) == 2


def test_out_files(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main([
        "classify", "--type", "A1", "--galois", "c2:inner", "--out", str(target)
    ]) == 0
    assert json.loads(target.read_text())["class_count"] == 2


def test_unknown_flags_rejected(capsys):
    assert main(["classify", "--type", "A1", "--galois", "trivial", "--bogus"]) == 2


def test_galois_table_missing_file(capsys):
    assert main(["classify", "--type", "A1", "--galois", "table:/nonexistent.json"]) == 2


def test_galois_table_file(tmp_path, capsys):
    table = {
        "elements": ["e", "g"],
        "table": [[0, 1], [1, 0]],
        "action": {"g": [2, 1]},
    }
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(table))
    assert main(["classify", "--type", "A2", "--galois", f"table:{path}"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class_count"] == 2


@pytest.mark.parametrize("suite", ["bijection", "local-global"])
def test_verify_reads_a_galois_table_file(suite, tmp_path, capsys):
    """`verify` takes `table:PATH` like `classify`: a cyclic table of order 2
    gives the report of the c2:inner preset."""
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"elements": ["e", "g"], "table": [[0, 1], [1, 0]]}))
    assert main(["verify", "--suite", suite, "--type", "A1", "--galois", "c2:inner"]) == 0
    preset = capsys.readouterr().out
    assert main(["verify", "--suite", suite, "--type", "A1", "--galois", f"table:{path}"]) == 0
    assert capsys.readouterr().out == preset
