import json

import pytest

import dl2.verifier
from dl2.cache import cached_character_table, load_table, save_table, resolve_cache_dir
from dl2.characters import ClassFunction, adjunction_check, character_table
from dl2.cli import main
from dl2.groups import make_group
from dl2.torus import classify_all
from dl2.verifier import (
    CaseData,
    check_inflation_adjunction,
    check_classical_sweep,
    check_mode_independence,
    run_case,
    run_suite,
)


def _strip_runtimes(d):
    if isinstance(d, dict):
        return {k: _strip_runtimes(v) for k, v in d.items() if k != "runtime_s"}
    if isinstance(d, list):
        return [_strip_runtimes(v) for v in d]
    return d


def test_run_case_small_gl():
    rep = run_case(2, 1, 2, "gl", "mixed")
    assert rep.all_pass()
    ids = {c.check_id for c in rep.checks}
    assert {"group-order", "table-validity", "stability", "dimension-law",
            "degree-census", "sign-formula", "inflation-adjunction"} <= ids
    sl_exc = [c for c in rep.checks if c.check_id == "sl-exceptions"][0]
    assert sl_exc.verdict == "inapplicable"  # GL case


def test_run_case_small_sl():
    rep = run_case(2, 1, 2, "sl", "equal")
    assert rep.all_pass()
    sl_exc = [c for c in rep.checks if c.check_id == "sl-exceptions"][0]
    assert sl_exc.verdict == "pass"
    assert sl_exc.computed["n_split_classes"] >= 1


def test_report_determinism():
    a = _strip_runtimes(run_case(2, 1, 1, "gl", "equal").to_dict())
    b = _strip_runtimes(run_case(2, 1, 1, "gl", "equal").to_dict())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_r1_case_degenerates_cleanly():
    rep = run_case(2, 1, 1, "sl", "equal")
    assert rep.all_pass()
    adj = [c for c in rep.checks if c.check_id == "inflation-adjunction"][0]
    assert adj.verdict == "inapplicable"  # no lower level to compare against
    stab = [c for c in rep.checks if c.check_id == "stability"][0]
    assert stab.verdict == "pass"  # reduces to the classical table facts


def test_adjunction_fails_cleanly_on_broken_reduction(monkeypatch):
    # SL2(Z/4) mixed, with one kernel element swapped for a non-kernel one:
    # averaging over the broken kernel stops being integral, and the check
    # must still return a verdict naming the first failing pair.
    G = make_group(2, 1, 2, "mixed", "sl")
    hom = G.reduction(1)
    assert G.codes[2] not in hom.kernel_codes
    hom.kernel_codes = hom.kernel_codes.copy()
    hom.kernel_codes[0] = G.codes[2]
    low, high = character_table(hom.target), character_table(G)
    assert adjunction_check(low.chars[0], high.chars[0], hom)
    with pytest.raises(ValueError, match="not integral"):
        adjunction_check(low.chars[0], high.chars[1], hom)

    monkeypatch.setattr(type(G), "reduction", lambda self, r2: hom)
    c = check_inflation_adjunction(CaseData(2, 1, 2, "mixed", "sl"))
    assert c.verdict == "fail"
    assert c.computed == {"failed_pair": [0, 1]}


def test_crashing_check_is_recorded_as_error(monkeypatch, tmp_path):
    def broken(group):
        raise ValueError("boom")

    monkeypatch.setattr(dl2.verifier, "steinberg", broken)
    rep = run_case(2, 1, 2, "gl", "mixed")
    assert len(rep.checks) == 9
    errors = [c for c in rep.checks if c.verdict == "error"]
    assert [c.check_id for c in errors] == ["stability"]
    assert errors[0].computed == {"error": "ValueError: boom"}
    assert all(c.verdict in ("pass", "inapplicable") for c in rep.checks if c not in errors)
    assert not rep.all_pass()
    report = tmp_path / "report.json"
    assert main(["verify", "--p", "2", "--k", "1", "--r", "2", "--flavor", "gl",
                 "--mode", "mixed", "--report", str(report)]) == 1


def test_mode_independence():
    for (p, k, r, flavor) in [(3, 1, 2, "gl"), (2, 1, 3, "sl")]:
        c = check_mode_independence(
            CaseData(p, k, r, "mixed", flavor), CaseData(p, k, r, "equal", flavor)
        )
        assert c.verdict == "pass"


def test_mode_independence_respects_size_bound(monkeypatch):
    calls = []
    monkeypatch.setattr(dl2.verifier, "classify_all", lambda t: calls.append(t) or classify_all(t))
    monkeypatch.setattr(dl2.verifier, "CLASSIFY_BOUND", 71)  # |T| = 72 for (3, 1, 2)
    c = check_mode_independence(CaseData(3, 1, 2, "mixed", "gl"), CaseData(3, 1, 2, "equal", "gl"))
    assert (c.verdict, c.computed, c.predicted) == ("inapplicable", None, None)
    assert calls == []


def test_mode_independence_predicts_once_per_theta(monkeypatch):
    calls = []
    predict = dl2.verifier.predict_gl2
    monkeypatch.setattr(dl2.verifier, "predict_gl2", lambda *a: calls.append(a) or predict(*a))
    c = check_mode_independence(CaseData(3, 1, 2, "mixed", "gl"), CaseData(3, 1, 2, "equal", "gl"))
    assert c.verdict == "pass" and c.computed["n_records"] == 72
    assert len(calls) == 2 * 72


def test_run_suite_predicts_once_per_theta(monkeypatch):
    """Dimension-law, degree-census, sign-formula and mode-independence share
    one prediction per theta and case."""
    calls = []
    predict = dl2.verifier.predict_gl2
    monkeypatch.setattr(dl2.verifier, "predict_gl2", lambda *a: calls.append(a) or predict(*a))
    out = run_suite([(3, 1, 2, "gl", "mixed"), (3, 1, 2, "gl", "equal")])
    assert out["all_pass"]
    assert len(calls) == 2 * 72  # |T| = q^2 (q^2 - 1) thetas in each mode
    per_torus = {}
    for tc, _q, _r in calls:
        per_torus.setdefault(id(tc.theta.group), set()).add(tc.theta.a)
    assert sorted(len(thetas) for thetas in per_torus.values()) == [72, 72]


def test_classical_sweep_check():
    c = check_classical_sweep(n_max=4, qs=(2, 3, 5))
    assert c.verdict == "pass"
    assert c.computed["failures"] == []


def test_run_suite_subset():
    manifest = [(2, 1, 1, "gl", "mixed"), (2, 1, 1, "gl", "equal")]
    out = run_suite(manifest)
    assert out["all_pass"]
    assert len(out["cases"]) == 2
    assert any(c["check_id"] == "classical-sweep" for c in out["suite_checks"])
    assert any(
        c["check_id"].startswith("mode-independence") for c in out["suite_checks"]
    )


def test_run_suite_classifies_each_case_once(monkeypatch):
    """Mode independence reuses the suite's cases and builds only a mode
    that the manifest lacks."""
    calls = []

    def counting(torus):
        calls.append((torus.q, torus.r, torus.ring.mode))
        return classify_all(torus)

    monkeypatch.setattr(dl2.verifier, "classify_all", counting)
    manifest = [(2, 1, 2, "gl", "mixed"), (2, 1, 2, "sl", "equal"), (2, 1, 2, "gl", "equal")]
    out = run_suite(manifest)
    assert out["all_pass"]
    assert [c["check_id"] for c in out["suite_checks"]] == [
        "classical-sweep", "mode-independence-2-1-2-gl", "mode-independence-2-1-2-sl",
    ]
    # three cases, plus the mixed mode of the SL case
    assert sorted(calls) == [(2, 2, "equal")] * 2 + [(2, 2, "mixed")] * 2


# -- CLI ---------------------------------------------------------------------


def test_cli_classify_torus(tmp_path, capsys):
    out = tmp_path / "thetas.jsonl"
    assert main(["classify-torus", "--p", "2", "--k", "1", "--r", "2",
                 "--mode", "mixed", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 12  # |T^F| = q^2 (q^2 - 1)
    rec = json.loads(lines[0])
    assert {"theta", "tau", "regular", "r0", "theta0", "alpha",
            "general_position", "stabilizer"} <= set(rec)


def test_cli_predict(tmp_path):
    out = tmp_path / "pred.jsonl"
    assert main(["predict", "--p", "3", "--k", "1", "--r", "1",
                 "--flavor", "gl", "--mode", "equal", "--out", str(out)]) == 0
    recs = [json.loads(x) for x in out.read_text().strip().split("\n")]
    assert len(recs) == 8
    assert all(r["total_dim"] == -2 for r in recs)  # level 1: always 1 - q
    assert all("paper_clause" in r for r in recs)


def test_cli_verify_and_report(tmp_path):
    rep = tmp_path / "report.json"
    code = main(["verify", "--p", "2", "--k", "1", "--r", "1",
                 "--flavor", "gl", "--mode", "equal", "--report", str(rep)])
    assert code == 0
    d = json.loads(rep.read_text())
    assert d["all_pass"] is True
    case = d["cases"][0]
    assert case["case"] == {"p": 2, "k": 1, "r": 1, "mode": "equal", "flavor": "gl"}
    for c in case["checks"]:
        assert {"check_id", "paper_clause", "computed", "predicted",
                "verdict", "runtime_s"} == set(c)


def test_cli_verify_manifest(tmp_path):
    mf = tmp_path / "suite.txt"
    mf.write_text(
        "# two tiny cases\n"
        "p=2 k=1 r=1 flavor=gl mode=equal\n"
        "p=2 k=1 r=1 flavor=sl mode=mixed\n"
    )
    rep = tmp_path / "report.json"
    assert main(["verify", "--manifest", str(mf), "--report", str(rep)]) == 0
    d = json.loads(rep.read_text())
    assert len(d["cases"]) == 2 and d["all_pass"]


@pytest.mark.parametrize("line,reason", [
    ("p=2 k=1 r=1 flavor=gl", "required: --mode"),
    ("p=4 k=1 r=1 flavor=gl mode=mixed", "4 is not a prime"),
    ("p=2 k=1 r=1 flavor=xx mode=mixed", "invalid choice: 'xx'"),
])
def test_cli_rejects_bad_manifest_line(tmp_path, capsys, line, reason):
    mf = tmp_path / "suite.txt"
    mf.write_text(f"# one good case, then a bad one\np=2 k=1 r=1 flavor=gl mode=equal\n{line}\n")
    assert main(["verify", "--manifest", str(mf)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"dl2: {mf}:3: ") and reason in err[0]


@pytest.mark.parametrize("argv", [
    ["classify-torus", "--p", "4", "--k", "1", "--r", "1", "--mode", "mixed"],
    ["classify-torus", "--p", "3", "--k", "0", "--r", "1", "--mode", "mixed"],
    ["classify-torus", "--p", "3", "--k", "1", "--r", "2", "--mode", "mixed",
     "--psi-scale", "0"],
    ["classify-torus", "--p", "3", "--k", "1", "--r", "2", "--mode", "mixed",
     "--psi-scale", "3"],
    ["predict", "--p", "2", "--k", "1", "--r", "0", "--flavor", "gl", "--mode", "equal"],
    ["verify", "--p", "1", "--k", "1", "--r", "1", "--flavor", "gl", "--mode", "equal"],
    ["dump-table", "--p", "2", "--k", "1", "--r", "-1", "--flavor", "gl", "--mode", "equal"],
])
def test_cli_rejects_bad_input(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err.splitlines()[-1]


def test_cli_accepts_extension_psi_scale(tmp_path):
    # code p is xbar, a unit of F_{p^2}
    out = tmp_path / "thetas.jsonl"
    assert main(["classify-torus", "--p", "2", "--k", "2", "--r", "2",
                 "--mode", "mixed", "--psi-scale", "2", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 240  # q^2 (q^2 - 1)


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.tsv"
    assert main(["sweep-conjecture", "--n-max", "3", "--q", "2,3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("flavor\t")
    assert all(line.endswith("pass") for line in lines[1:])


def test_cli_dump_table(tmp_path):
    out = tmp_path / "tab.json"
    assert main(["dump-table", "--p", "2", "--k", "1", "--r", "1",
                 "--mode", "equal", "--flavor", "gl",
                 "--format", "json", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["format"] == "dl2-table/1"
    assert sorted(c["degree"] for c in d["characters"]) == [1, 1, 2]


# -- caches --------------------------------------------------------------------


def test_table_cache_roundtrip(tmp_path):
    tab = character_table(make_group(2, 1, 2, "mixed", "gl"))
    save_table(tab, tmp_path)
    loaded = load_table(2, 1, 2, "mixed", "gl", tmp_path)
    assert loaded is not None
    assert (loaded.coeffs == tab.coeffs).all()
    assert loaded.exponent == tab.exponent
    assert all(
        a.e == b.e and (a.coeffs == b.coeffs).all() for a, b in zip(loaded.chars, tab.chars, strict=True)
    )


def test_cached_character_table(tmp_path):
    t1 = cached_character_table(3, 1, 1, "mixed", "sl", cache_dir=str(tmp_path))
    assert (tmp_path / "table-p3k1r1-mixed-sl.json.gz").exists()
    assert (tmp_path / "group-p3k1r1-mixed-sl.npz").exists()
    t2 = cached_character_table(3, 1, 1, "mixed", "sl", cache_dir=str(tmp_path))
    assert (t1.coeffs == t2.coeffs).all()


def test_table_paths_build_no_class_functions(tmp_path, monkeypatch):
    """Caching, reloading, verifying and dumping a table use its coefficient
    tensor alone; its class functions are built only on first use."""

    def no_class_function(self, group, e, coeffs):
        raise AssertionError("ClassFunction built")

    monkeypatch.setattr(ClassFunction, "__init__", no_class_function)
    built = cached_character_table(2, 1, 2, "equal", "sl", cache_dir=str(tmp_path))
    loaded = load_table(2, 1, 2, "equal", "sl", tmp_path)
    for tab in (built, loaded):
        tab.verify()
        assert len(tab) == tab.conjugacy.n_classes
        assert tab.to_json_dict() == built.to_json_dict()
        assert tab.to_tsv() == built.to_tsv()
        assert tab.degree_count(1) >= 1  # the trivial character
    with pytest.raises(AssertionError, match="ClassFunction built"):
        loaded.chars


def test_cache_rejects_bad_format(tmp_path):
    path = tmp_path / "table-p2k1r1-equal-gl.json.gz"
    import gzip

    with gzip.open(path, "wt") as fh:
        json.dump({"format": "other/9"}, fh)
    assert load_table(2, 1, 1, "equal", "gl", tmp_path) is None


def test_cache_rejects_corrupted_table_and_recomputes(tmp_path):
    import gzip

    tab = character_table(make_group(2, 1, 2, "mixed", "gl"))
    path = save_table(tab, tmp_path)
    with gzip.open(path, "rt") as fh:
        payload = json.load(fh)
    payload["coeffs"][3][2][0] += 1
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)
    assert load_table(2, 1, 2, "mixed", "gl", tmp_path) is None
    rep = run_case(2, 1, 2, "gl", "mixed", cache_dir=str(tmp_path))
    verdicts = {c.check_id: c.verdict for c in rep.checks}
    assert verdicts["table-validity"] == "pass" and verdicts["stability"] == "pass"
    # the recomputed table overwrote the corrupted file
    assert load_table(2, 1, 2, "mixed", "gl", tmp_path) is not None
    path.write_bytes(path.read_bytes()[:-20])  # a truncated gzip stream
    assert load_table(2, 1, 2, "mixed", "gl", tmp_path) is None


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DL2_CACHE_DIR", str(tmp_path / "cachedir"))
    d = resolve_cache_dir(None)
    assert d is not None and d.exists()
    monkeypatch.delenv("DL2_CACHE_DIR")
    assert resolve_cache_dir(None) is None


def test_oversize_case_inapplicable_not_failed():
    rep = run_case(7, 1, 3, "gl", "mixed")
    assert rep.all_pass()
    assert all(c.verdict == "inapplicable" for c in rep.checks)
