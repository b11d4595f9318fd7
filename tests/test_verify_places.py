"""verify --places is resolved against the model before the suite runs."""

import json

from endatlas.cli import main


def _no_suite(*args, **kwargs):
    raise AssertionError("local_global_suite ran before --places was resolved")


def test_places_matching_nothing_fail_before_the_suite(monkeypatch, capsys):
    monkeypatch.setattr("endatlas.cli.local_global_suite", _no_suite)
    for type_name, galois in (("D4", "s3"), ("E8", "c2:inner")):
        assert main([
            "verify", "--suite", "local-global", "--type", type_name,
            "--galois", galois, "--places", "bogus",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: no listed place matches --places"


def test_places_on_a_model_over_the_cap_print_the_cap_report(monkeypatch, capsys):
    monkeypatch.setattr("endatlas.cli.local_global_suite", _no_suite)
    assert main([
        "verify", "--suite", "local-global", "--type", "A1",
        "--galois", "c101:inner", "--places", "g1",
    ]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and "work cap" in out["cap_exceeded"]
