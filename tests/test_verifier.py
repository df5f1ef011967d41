import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import dl2.verifier
from dl2.cache import cached_character_table, load_table, save_table, resolve_cache_dir
from dl2.characters import CharacterTable, ClassFunction, adjunction_check, character_table
from dl2.cli import main
from dl2.groups import ReductionHom, make_group
from dl2.torus import classify_all
from dl2.verifier import (
    DEFAULT_MANIFEST,
    CaseData,
    _first_failed_pair,
    check_group_order,
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
    hom = ReductionHom(G, 1)  # not the memoized G.reduction(1), which others share
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


def test_group_order_fails_without_the_unit_generators(monkeypatch):
    """Elementaries alone generate SL2, a proper subgroup of GL2."""
    gens = dl2.verifier.group_generators
    monkeypatch.setattr(dl2.verifier, "group_generators", lambda ring, flavor: gens(ring, "sl"))
    c = check_group_order(CaseData(3, 1, 2, "mixed", "gl"))
    assert c.verdict == "fail"
    assert c.computed == {"order": 3888, "generated": False}


def test_group_order_builds_no_group(monkeypatch):
    def no_group(*args):
        raise AssertionError("group-order enumerated the group")

    monkeypatch.setattr(dl2.verifier, "make_group", no_group)
    cd = CaseData(5, 1, 2, "mixed", "gl")
    c = check_group_order(cd)
    assert c.verdict == "pass" and c.computed == {"order": 300_000, "generated": True}
    assert "group" not in cd.__dict__


def test_first_failed_pair_guards_int64_overflow(monkeypatch):
    G = make_group(2, 1, 2, "mixed", "sl")
    low, high = character_table(G.reduction(1).target), character_table(G)
    D = np.zeros((low.conjugacy.n_classes, high.conjugacy.n_classes), dtype=np.int64)
    D[0, 0] = 2**62  # n_low * max|chi| * 2^62 >= 2^63
    with pytest.raises(OverflowError, match="chi\\^T D bound"):
        _first_failed_pair(D, low, high)
    monkeypatch.setattr(dl2.verifier, "adjunction_defect", lambda hom: D)
    c = check_inflation_adjunction(CaseData(2, 1, 2, "mixed", "sl"))
    assert c.verdict == "error"
    assert c.computed["error"].startswith("OverflowError: int64 overflow risk")


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


def test_mode_independence_predicts_once_per_case(monkeypatch):
    calls = []
    predict = dl2.verifier.predict_gl2
    monkeypatch.setattr(dl2.verifier, "predict_gl2", lambda cl: calls.append(cl) or predict(cl))
    c = check_mode_independence(CaseData(3, 1, 2, "mixed", "gl"), CaseData(3, 1, 2, "equal", "gl"))
    assert c.verdict == "pass" and c.computed["n_records"] == 72
    assert len(calls) == 2  # one array call per mode predicts all 72 thetas


def test_run_suite_predicts_once_per_case(monkeypatch):
    """Dimension-law, degree-census, sign-formula and mode-independence share
    one array of predictions per case."""
    calls = []
    predict = dl2.verifier.predict_gl2
    monkeypatch.setattr(dl2.verifier, "predict_gl2", lambda cl: calls.append(cl) or predict(cl))
    out = run_suite([(3, 1, 2, "gl", "mixed"), (3, 1, 2, "gl", "equal")])
    assert out["all_pass"]
    assert len(calls) == 2
    # one classification of each mode's torus, |T| = q^2 (q^2 - 1) thetas each
    assert sorted(cl.torus.ring.mode for cl in calls) == ["equal", "mixed"]
    assert [len(cl) for cl in calls] == [72, 72]


def test_run_suite_peels_once_per_case(monkeypatch):
    """classification-coherence peels every theta of a case in one array call."""
    calls = []
    peel = dl2.verifier.conductor_by_peeling
    monkeypatch.setattr(dl2.verifier, "conductor_by_peeling", lambda t, A: calls.append((t, len(A))) or peel(t, A))
    out = run_suite([(3, 1, 2, "gl", "mixed"), (3, 1, 2, "gl", "equal")])
    assert out["all_pass"]
    assert sorted((t.ring.mode, n) for t, n in calls) == [("equal", 72), ("mixed", 72)]


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


# memos keyed by integers alone, which `release_chain_memos` keeps
_INTEGER_KEYED_MEMOS = {
    "dl2.cyclotomic.cyclotomic_poly",
    "dl2.cyclotomic.phi",
    "dl2.cyclotomic.zeta_powers",
    "dl2.cyclotomic.zeta_bound",
    "dl2.cyclotomic._prime_ladder",
    "dl2.cyclotomic._root",
    "dl2.cyclotomic._evaluation_matrices",
    "dl2.rings.get_field",
}


def _dl2_memos():
    """name -> object of every `cache_clear` defined in a dl2 module, at
    module level or in a class."""
    import importlib
    import pkgutil

    import dl2

    memos = {}
    for info in pkgutil.iter_modules(dl2.__path__):
        if info.name == "__main__":  # runs the command line on import
            continue
        module = importlib.import_module(f"dl2.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if hasattr(obj, "cache_clear"):
                memos[f"{module.__name__}.{name}"] = obj
            if isinstance(obj, type):
                memos.update(
                    (f"{module.__name__}.{name}.{attr}", v)
                    for attr, v in vars(obj).items()
                    if hasattr(v, "cache_clear")
                )
    return memos


def test_release_chain_memos_clears_every_object_keyed_memo(monkeypatch):
    """Every memo in dl2 is either released after a chain or keyed by
    integers alone; a new memo must be put on one of the two lists."""
    memos = _dl2_memos()
    assert _INTEGER_KEYED_MEMOS <= set(memos)
    cleared = []
    for name, memo in memos.items():
        monkeypatch.setattr(memo, "cache_clear", lambda name=name: cleared.append(name))
    dl2.verifier.release_chain_memos()
    assert len(cleared) == len(set(cleared))
    assert set(cleared) == set(memos) - _INTEGER_KEYED_MEMOS


def test_run_suite_frees_each_chain_before_the_next(monkeypatch):
    """Chain 1's ring, code space, group, classes, table and torus die by
    reference count before chain 2's first case starts (the collector is
    off), although its cases wait for their mode partners in chain 2."""
    import gc
    import weakref

    refs, alive = [], []
    run = dl2.verifier._run_checks

    def tracking(cd):
        if cd.mode == "equal" and not alive:
            alive.append([name for name, ref in refs if ref() is not None])
        rep = run(cd)
        if cd.mode == "mixed":
            objs = {"ring": cd.group.ring, "space": cd.group.space, "group": cd.group,
                    "classes": cd.group.conjugacy(), "table": cd.table, "torus": cd.torus}
            refs.extend((f"{name} {cd.key()}", weakref.ref(obj)) for name, obj in objs.items())
        return rep

    monkeypatch.setattr(dl2.verifier, "_run_checks", tracking)
    dl2.verifier.release_chain_memos()  # objects that earlier tests built and may hold
    manifest = [(2, 1, 2, "gl", "mixed"), (2, 1, 2, "sl", "mixed"), (2, 1, 2, "gl", "equal"),
                (2, 1, 2, "sl", "equal")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = run_suite(manifest)
    finally:
        if enabled:
            gc.enable()
    assert out["all_pass"]
    assert len(refs) == 12 and alive == [[]]


def test_run_suite_builds_each_object_once(monkeypatch):
    """Within a chain nothing is rebuilt: each ring, code space, group,
    class set, table and torus is constructed once per key, although a
    chain's cases share them and the next chains release them."""
    from dl2.characters import CharacterTable
    from dl2.groups import ConjugacyData, MatrixGroup, MatrixSpace
    from dl2.rings import RingSpec
    from dl2.torus import CoxeterTorus

    def ring_key(ring, *_):
        return (ring.p, ring.k, ring.r, ring.mode)

    def group_key(group):
        return ring_key(group.ring) + (group.flavor,)

    # the key of an object from its constructor's arguments
    keys = {
        RingSpec: lambda *args: args[:4],
        MatrixSpace: ring_key,
        MatrixGroup: lambda ring, flavor, *_: ring_key(ring) + (flavor,),
        ConjugacyData: group_key,
        CharacterTable: lambda group, *_: group_key(group),
        CoxeterTorus: ring_key,
    }
    built = []
    for cls, key in keys.items():
        init = cls.__init__

        def counting(self, *args, init=init, key=key, **kwargs):
            init(self, *args, **kwargs)
            built.append((type(self).__name__,) + tuple(key(*args)))

        monkeypatch.setattr(cls, "__init__", counting)
    dl2.verifier.release_chain_memos()  # so that the suite builds everything it uses
    manifest = [c for c in DEFAULT_MANIFEST if c[:2] == (2, 1)]
    out = run_suite(manifest)
    assert out["all_pass"]
    assert len(built) == len(set(built))
    # every level of both chains, in both flavours
    assert {k for k in built if k[0] == "CharacterTable"} == {
        ("CharacterTable", 2, 1, r, mode, flavor)
        for r in (1, 2, 3) for mode in ("mixed", "equal") for flavor in ("gl", "sl")
    }


def test_run_suite_records_do_not_depend_on_manifest_order():
    """Chains run one at a time, yet every case and suite check reports
    what it reports in manifest order, for a permuted manifest and for one
    with a duplicate line."""
    manifest = [(2, 1, 1, "gl", "mixed"), (2, 1, 2, "sl", "equal"), (3, 1, 1, "sl", "mixed"),
                (2, 1, 2, "sl", "mixed"), (3, 1, 1, "gl", "equal"), (2, 1, 1, "gl", "equal")]
    permuted = [manifest[i] for i in (4, 1, 5, 0, 3, 2)]
    duplicated = manifest[:3] + [manifest[1]] + manifest[3:]
    want = _strip_runtimes(run_suite(manifest))
    by_case = {tuple(c["case"].values()): c for c in want["cases"]}
    checks = {c["check_id"]: c for c in want["suite_checks"]}
    got = {}
    for name, m in (("permuted", permuted), ("duplicated", duplicated)):
        got[name] = _strip_runtimes(run_suite(m))
        assert got[name]["cases"] == [by_case[(p, k, r, mode, flavor)] for p, k, r, flavor, mode in m]
        assert {c["check_id"]: c for c in got[name]["suite_checks"]} == checks
    # suite checks in order of each (p, k, r, flavor)'s first line
    assert [c["check_id"] for c in got["permuted"]["suite_checks"]] == [
        "classical-sweep", "mode-independence-3-1-1-gl", "mode-independence-2-1-2-sl",
        "mode-independence-2-1-1-gl", "mode-independence-3-1-1-sl",
    ]


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


def test_cli_classify_torus_matches_golden_digests(tmp_path):
    """The JSON lines of classify-torus hash to the recorded SHA-256.  They
    carry the theta rows over the torus basis and the basis orders, so any
    change of basis shows here."""
    golden = json.loads((Path(__file__).parent / "data" / "classify-torus-digests.json").read_text())
    assert len(golden) == 4
    for key, digest in golden.items():
        p, k, r, mode = re.fullmatch(r"p(\d+)k(\d+)r(\d+)-(\w+)", key).groups()
        out = tmp_path / f"{key}.jsonl"
        assert main(["classify-torus", "--p", p, "--k", k, "--r", r, "--mode", mode,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, key


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
    ("p=318665857834031151167463 k=1 r=1 flavor=gl mode=mixed", "where is_prime is proven"),
])
def test_cli_rejects_bad_manifest_line(tmp_path, capsys, line, reason):
    mf = tmp_path / "suite.txt"
    mf.write_text(f"# one good case, then a bad one\np=2 k=1 r=1 flavor=gl mode=equal\n{line}\n")
    assert main(["verify", "--manifest", str(mf)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"dl2: {mf}:3: ") and reason in err[0]


# input that parses but cannot be run; rejected with one stderr line
_CHECKED_INPUT = [
    ["sweep-conjecture", "--n-max", "-3"],
    ["sweep-conjecture", "--n-max", "1"],
    ["sweep-conjecture", "--q", "2,x"],
    ["sweep-conjecture", "--q", "1"],
    ["sweep-conjecture", "--q", "6"],
    ["dump-table", "--p", "5", "--k", "1", "--r", "2", "--flavor", "gl", "--mode", "mixed"],
    ["classify-torus", "--p", "2", "--k", "1", "--r", "13", "--mode", "mixed"],
    ["predict", "--p", "2", "--k", "1", "--r", "13", "--flavor", "gl", "--mode", "equal"],
    ["verify", "--p", "2", "--k", "1", "--r", "1", "--flavor", "gl", "--mode", "equal",
     "--cache-dir", __file__],
    ["dump-table", "--p", "2", "--k", "1", "--r", "1", "--flavor", "gl", "--mode", "equal",
     "--cache-dir", str(Path(__file__) / "sub")],
]


@pytest.mark.parametrize("argv", [
    ["classify-torus", "--p", "4", "--k", "1", "--r", "1", "--mode", "mixed"],
    ["classify-torus", "--p", "3", "--k", "0", "--r", "1", "--mode", "mixed"],
    ["classify-torus", "--p", "3", "--k", "1", "--r", "2", "--mode", "mixed",
     "--psi-scale", "0"],
    ["classify-torus", "--p", "3", "--k", "1", "--r", "2", "--mode", "mixed",
     "--psi-scale", "3"],
    ["predict", "--p", "2", "--k", "1", "--r", "0", "--flavor", "gl", "--mode", "equal"],
    ["verify", "--p", "1", "--k", "1", "--r", "1", "--flavor", "gl", "--mode", "equal"],
    ["verify", "--p", str(10**24 + 7), "--k", "1", "--r", "1", "--flavor", "gl", "--mode", "equal"],
    ["dump-table", "--p", "2", "--k", "1", "--r", "-1", "--flavor", "gl", "--mode", "equal"],
    *_CHECKED_INPUT,
])
def test_cli_rejects_bad_input(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert "error:" in err[-1]
    assert argv not in _CHECKED_INPUT or len(err) == 1


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


def _read_members(path) -> dict:
    with np.load(path, allow_pickle=False) as z:
        return {name: z[name] for name in z.files}


def _meta(members) -> dict:
    return json.loads(members["meta"].item())


def _with_meta(members, **changes) -> dict:
    return {**members, "meta": np.array(json.dumps({**_meta(members), **changes}))}


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


def test_table_cache_takes_a_str_directory(tmp_path):
    """A directory given as str, as `cached_character_table` accepts it."""
    assert load_table(2, 1, 2, "mixed", "gl", str(tmp_path)) is None
    tab = character_table(make_group(2, 1, 2, "mixed", "gl"))
    assert save_table(tab, str(tmp_path)).exists()
    loaded = load_table(2, 1, 2, "mixed", "gl", str(tmp_path))
    assert loaded is not None and (loaded.coeffs == tab.coeffs).all()


@pytest.mark.parametrize("stored", [None, np.int16, np.int32])
def test_table_cache_roundtrip_is_int64(tmp_path, stored):
    """The file holds the narrowest dtype (int8: every coefficient is at
    most 12); the loaded tensor is int64 and equal to the built one, also
    when the file holds a wider integer dtype."""
    tab = character_table(make_group(3, 1, 2, "mixed", "gl"))
    path = save_table(tab, tmp_path)
    members = _read_members(path)
    assert members["coeffs"].dtype == np.int8
    assert _meta(members)["format"] == "dl2-table/2"
    if stored is not None:
        np.savez_compressed(path, **{**members, "coeffs": members["coeffs"].astype(stored)})
    loaded = load_table(3, 1, 2, "mixed", "gl", tmp_path)
    assert loaded is not None
    assert loaded.coeffs.dtype == np.int64 and loaded.degrees.dtype == np.int64
    assert (loaded.coeffs == tab.coeffs).all() and (loaded.degrees == tab.degrees).all()


def test_table_cache_narrows_to_int16_and_verifies_on_load(tmp_path):
    """Coefficients beyond int8 are stored as int16, exactly.  The tables
    within reach have none (their largest coefficient is their largest
    degree, at most 48), so the tensor here is a scaled table, which the
    loader's verify() then rejects."""
    tab = character_table(make_group(2, 1, 2, "mixed", "gl"))
    scaled = CharacterTable(tab.group, parts=(tab.coeffs * 50, tab.exponent, tab.degrees))
    members = _read_members(save_table(scaled, tmp_path))
    assert members["coeffs"].dtype == np.int16
    assert (members["coeffs"] == scaled.coeffs).all()
    assert load_table(2, 1, 2, "mixed", "gl", tmp_path) is None


def test_cached_character_table(tmp_path):
    t1 = cached_character_table(3, 1, 1, "mixed", "sl", cache_dir=str(tmp_path))
    assert (tmp_path / "table-p3k1r1-mixed-sl.npz").exists()
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
    """A valid table under another format string is a miss."""
    path = save_table(character_table(make_group(2, 1, 1, "equal", "gl")), tmp_path)
    assert path == tmp_path / "table-p2k1r1-equal-gl.npz"
    assert load_table(2, 1, 1, "equal", "gl", tmp_path) is not None
    np.savez_compressed(path, **_with_meta(_read_members(path), format="other/9"))
    assert load_table(2, 1, 1, "equal", "gl", tmp_path) is None


def test_cache_rejects_table_with_galois_breaking_column_swap(tmp_path):
    """A cache file whose table has two columns swapped, of same-size
    self-inverse classes, passes both orthogonality relations but not
    Galois compatibility, so the loader refuses it."""
    from test_characters import galois_breaking_swap

    tab = character_table(make_group(3, 1, 2, "mixed", "sl"))
    path = save_table(tab, tmp_path)
    assert load_table(3, 1, 2, "mixed", "sl", tmp_path) is not None
    members = _read_members(path)
    coeffs, (a, b) = galois_breaking_swap(tab)
    # the file holds the same sorted rows, with the two columns swapped
    members["coeffs"] = members["coeffs"][:, np.r_[: a, b, a + 1 : b, a, b + 1 : len(tab)]]
    assert (members["coeffs"] == coeffs).all()
    np.savez_compressed(path, **members)
    assert load_table(3, 1, 2, "mixed", "sl", tmp_path) is None


def test_cache_rejects_corrupted_table_and_recomputes(tmp_path):
    tab = character_table(make_group(2, 1, 2, "mixed", "gl"))
    path = save_table(tab, tmp_path)
    members = _read_members(path)
    members["coeffs"][3, 2, 0] += 1
    np.savez_compressed(path, **members)
    assert load_table(2, 1, 2, "mixed", "gl", tmp_path) is None
    rep = run_case(2, 1, 2, "gl", "mixed", cache_dir=str(tmp_path))
    verdicts = {c.check_id: c.verdict for c in rep.checks}
    assert verdicts["table-validity"] == "pass" and verdicts["stability"] == "pass"
    # the recomputed table overwrote the corrupted file
    assert load_table(2, 1, 2, "mixed", "gl", tmp_path) is not None
    path.write_bytes(path.read_bytes()[:-20])  # a truncated zip file
    assert load_table(2, 1, 2, "mixed", "gl", tmp_path) is None


def _nan_coefficient(members):
    coeffs = members["coeffs"].astype(np.float64)
    coeffs[1, 1, 0] = np.nan
    return {**members, "coeffs": coeffs}


MALFORMED_TABLE_FILES = {
    "list": lambda t: {**t, "meta": np.array(json.dumps([_meta(t)]))},  # meta not a dict
    "null": lambda t: {**t, "meta": np.array("null")},
    "meta-int": lambda t: {**t, "meta": np.array(5)},
    # the exact degrees as floats: only the dtype check rejects them
    "null-degrees": lambda t: {**t, "degrees": t["degrees"].astype(np.float64)},
    "flat-coeffs": lambda t: {**t, "coeffs": t["coeffs"].ravel()},
    "short-coeffs": lambda t: {**t, "coeffs": t["coeffs"][:-1]},
    "null-coefficient": _nan_coefficient,
    "exponent-0": lambda t: _with_meta(t, exponent=0),
    "exponent-x": lambda t: _with_meta(t, exponent="x"),
    "exponent-2e": lambda t: _with_meta(t, exponent=2 * _meta(t)["exponent"]),
}


@pytest.mark.parametrize("edit", MALFORMED_TABLE_FILES.values(), ids=MALFORMED_TABLE_FILES)
def test_cache_rejects_malformed_table_file_and_recomputes(tmp_path, edit):
    """A file that is not this group's table (meta type, exponent,
    coefficient and degree dtypes and shapes) is a miss, not a crash or a
    table."""
    path = save_table(character_table(make_group(3, 1, 1, "mixed", "gl")), tmp_path)
    np.savez_compressed(path, **edit(_read_members(path)))
    assert load_table(3, 1, 1, "mixed", "gl", tmp_path) is None
    tab = cached_character_table(3, 1, 1, "mixed", "gl", cache_dir=str(tmp_path))
    golden = Path(__file__).parent / "data" / "table-p3k1r1-mixed-gl.tsv"
    assert tab.to_tsv() == golden.read_text()  # values over z24, not z48
    assert load_table(3, 1, 1, "mixed", "gl", tmp_path) is not None


def test_cache_rejects_missing_member(tmp_path):
    path = save_table(character_table(make_group(3, 1, 1, "mixed", "gl")), tmp_path)
    members = _read_members(path)
    for name in members:
        np.savez_compressed(path, **{k: v for k, v in members.items() if k != name})
        assert load_table(3, 1, 1, "mixed", "gl", tmp_path) is None, name


_unpickled = []


def _record_unpickling(tag):
    _unpickled.append(tag)


class _RecordsUnpickling:
    def __reduce__(self):
        return _record_unpickling, ("unpickled",)


def test_cache_never_unpickles(tmp_path):
    """An object array in the file is a miss, and nothing in it runs."""
    path = save_table(character_table(make_group(3, 1, 1, "mixed", "gl")), tmp_path)
    members = _read_members(path)
    coeffs = members["coeffs"].astype(object)
    coeffs[0, 0, 0] = _RecordsUnpickling()
    np.savez_compressed(path, **{**members, "coeffs": coeffs})
    with np.load(path, allow_pickle=True) as z:  # the file does carry a live pickle
        z["coeffs"]
    assert _unpickled == ["unpickled"]
    _unpickled.clear()
    assert load_table(3, 1, 1, "mixed", "gl", tmp_path) is None
    assert _unpickled == []


def test_cache_ignores_older_json_table(tmp_path, monkeypatch):
    """A valid table file of the previous format (gzip JSON) is never
    opened: the table is recomputed and written as .npz beside it."""
    import gzip

    import dl2.cache

    tab = character_table(make_group(3, 1, 1, "mixed", "gl"))
    old = tmp_path / "table-p3k1r1-mixed-gl.json.gz"
    payload = {
        "format": "dl2-table/1", "p": 3, "k": 1, "r": 1, "mode": "mixed", "flavor": "gl",
        "exponent": tab.exponent,
        "class_reps": tab.conjugacy.reps.tolist(),
        "degrees": tab.degrees.tolist(),
        "coeffs": tab.coeffs.tolist(),
    }
    with gzip.open(old, "wt") as fh:
        json.dump(payload, fh)
    stale = old.read_bytes()
    built = []
    monkeypatch.setattr(dl2.cache, "character_table", lambda g: built.append(g) or character_table(g))
    got = cached_character_table(3, 1, 1, "mixed", "gl", cache_dir=str(tmp_path))
    assert len(built) == 1  # a miss
    assert (got.coeffs == tab.coeffs).all()
    assert (tmp_path / "table-p3k1r1-mixed-gl.npz").exists()
    assert old.read_bytes() == stale
    cached_character_table(3, 1, 1, "mixed", "gl", cache_dir=str(tmp_path))
    assert len(built) == 1  # now a hit, from the .npz


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


# -- the traced benchmark's hooks ------------------------------------------------


def test_perfbench_spans_wrap_live_attributes(tmp_path):
    """`perfbench/spans.py` wraps dl2 functions at the attributes their
    callers look them up by.  Installing it and running one small suite
    must record a span for each: a renamed attribute fails here, not only
    in the traced benchmark.  The suite has two ring chains, so the memos
    are released between them with the wrappers installed.  The harness is
    imported as it is, not edited."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    code = (
        "import json\n"
        "import spans\n"
        "rec = spans.Recorder()\n"
        "spans.install(rec)\n"
        "from dl2.verifier import run_suite\n"
        f"out = run_suite([(2, 1, 2, 'gl', 'mixed'), (2, 1, 2, 'gl', 'equal')], cache_dir={str(tmp_path)!r})\n"
        "print(json.dumps({'all_pass': out['all_pass'], 'spans': sorted(rec.summary()),\n"
        "                  'check_ids': list(spans.CHECK_IDS)}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["all_pass"]
    required = {
        "torus.make_torus",
        "torus.classify_all",
        "torus.conductor_brute_force",
        "torus.conductor_by_peeling",
        "predictor.predict",
        "cache.save_group",
    } | {f"verifier.check.{c}" for c in out["check_ids"]}
    assert required <= set(out["spans"]), sorted(required - set(out["spans"]))


def test_run_does_not_import_numpy_ma(tmp_path):
    """`np.unique(x)` with no return_* flag imports numpy.ma (some 25 ms) on
    first use; a verify case, a cached table, missed then hit, and a ring
    over a non-prime field must leave it as `import dl2.cli, dl2.cache`
    did."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "import dl2.cli, dl2.cache\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from dl2.verifier import run_suite\n"
        "assert run_suite([(2, 1, 2, 'gl', 'mixed')])['all_pass']\n"
        "from dl2.rings import make_ext, make_ring\n"
        "make_ext(make_ring(2, 3, 1, 'mixed'))\n"
        "for _ in range(2):\n"
        f"    dl2.cache.cached_character_table(3, 1, 1, 'mixed', 'gl', cache_dir={str(tmp_path)!r})\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before, "numpy.ma imported during the run"
    assert (tmp_path / "table-p3k1r1-mixed-gl.npz").exists()
