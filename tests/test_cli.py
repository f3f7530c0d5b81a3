import errno
import json
import os
import stat
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

import hurwitzrec

# development mode with warnings as errors: a ResourceWarning (or any other
# warning) in the child fails the test that started it
CLI = [sys.executable, "-X", "dev", "-W", "error", "-m", "hurwitzrec.cli"]

# the children import the same copy of the package as the suite
SRC = str(Path(hurwitzrec.__file__).resolve().parent.parent)


def cli_env():
    # a developer's own cache file must not leak into (or out of) the suite
    env = {k: v for k, v in os.environ.items() if k != "HURWITZREC_CACHE"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + os.pathsep + path if path else SRC
    return env


def seal(path, doc):
    """Write ``doc`` to ``path`` under the digest the writer would give its
    forms, the crc32 of the ``poleforms`` list dumped with the writer's
    separators, so that a hand-built or edited file reaches the loader's
    checks of its entries."""
    forms = json.dumps(doc["poleforms"], separators=(", ", ": "))
    Path(path).write_text(json.dumps({**doc, "digest": zlib.crc32(forms.encode())}))


def run_cli(*args, env_extra=None, timeout=300):
    env = cli_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


class TestTable:
    def test_both_small_range(self):
        r = run_cli("table", "--g-max", "1", "--n-max", "3", "--method", "both")
        assert r.returncode == 0
        assert "yes" in r.stdout and "NO" not in r.stdout

    def test_oracle_single_row(self):
        r = run_cli(
            "table", "--g-max", "0", "--n-max", "1", "--method", "oracle",
            "--format", "csv",
        )
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["g,mu,method,value", "0,1,oracle,1/1"]

    @pytest.mark.parametrize("method,header", [
        ("recursion", " g  mu                    recursion"),
        ("both", " g  mu                    recursion           oracle  equal"),
    ])
    def test_empty_table_keeps_its_columns(self, method, header):
        # no (g, mu) with g = 0, |mu| <= 2 is stable, so the recursion lists none
        r = run_cli("table", "--g-max", "0", "--n-max", "2", "--method", method)
        assert r.returncode == 0
        assert r.stdout == header + "\n"

    def test_json_format(self):
        r = run_cli(
            "table", "--g-max", "1", "--n-max", "2", "--method", "both",
            "--format", "json",
        )
        assert r.returncode == 0
        rows = json.loads(r.stdout)
        assert all(row["equal"] for row in rows)
        assert {"g": 1, "mu": [2], "recursion": "1/2", "oracle": "1/2", "equal": True} in rows

    def test_bad_flags_exit_64(self):
        assert run_cli("table", "--g-max", "-1").returncode == 64
        assert run_cli("table", "--n-max", "0").returncode == 64
        assert run_cli("table", "--method", "nonsense").returncode == 64

    def test_trunc_order_flag_removed(self):
        r = run_cli("table", "--g-max", "1", "--n-max", "2", "--trunc-order", "8")
        assert r.returncode == 64
        assert "--trunc-order" in r.stderr

    def test_output_determinism(self):
        args = ("table", "--g-max", "1", "--n-max", "3", "--format", "json")
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0


class TestWkg:
    def test_unstable_bergman_message(self):
        r = run_cli("wkg", "0", "2")
        assert r.returncode == 65
        assert "Bergman" in r.stderr

    def test_unstable_curve_datum_message(self):
        r = run_cli("wkg", "0", "1")
        assert r.returncode == 65
        assert "-y dx" in r.stderr

    def test_outside_stable_range_message(self):
        r = run_cli("wkg", "0", "0")
        assert r.returncode == 65
        assert "stable range" in r.stderr

    def test_w03_canonical_and_stable_bytes(self):
        a, b = run_cli("wkg", "0", "3"), run_cli("wkg", "0", "3")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        obj = json.loads(a.stdout)
        assert obj == {"g": 0, "k": 3, "terms": [{"a": [2, 2, 2], "c": "1/1"}]}

    def test_w11_has_no_order_one_poles(self):
        r = run_cli("wkg", "1", "1")
        obj = json.loads(r.stdout)
        assert all(1 not in t["a"] for t in obj["terms"])


class TestHelp:
    def test_description_keeps_its_lines(self):
        # the docstring is printed as written: each exit code on its own
        # line, and no reST markup
        r = run_cli("--help")
        assert r.returncode == 0 and r.stderr == ""
        lines = r.stdout.splitlines()
        assert lines[:5] == [
            "usage: hurwitzrec [-h] {table,wkg,check} ...",
            "",
            "Exact simple Hurwitz numbers from the command line.",
            "",
            "Commands: 'table' (Hurwitz numbers by either or both routes), 'wkg'",
        ]
        codes = [line.split()[1] for line in lines if line.startswith("- ")]
        assert codes == ["0", "2", "64", "65", "70", "74", "130"]
        assert "``" not in r.stdout


class TestCheck:
    def test_times_suite_refused(self):
        # the times are checked in the test suite, as the series are
        r = run_cli("check", "times")
        assert r.returncode == 64 and r.stdout == ""
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:")
        assert "invalid choice: 'times'" in lines[0]

    def test_series_suite_refused(self):
        # the series checks live in the test suite, not in the CLI
        r = run_cli("check", "series")
        assert r.returncode == 64
        assert r.stdout == ""
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:")
        assert all(repr(suite) in lines[0] for suite in ("bm", "elsv"))
        assert "times" not in lines[0]

    def test_elsv_suite(self):
        r = run_cli("check", "elsv")
        assert r.returncode == 0
        assert "1/24" in r.stdout

    def test_bm_suite(self):
        r = run_cli("check", "bm", "--g-max", "1", "--n-max", "3")
        assert r.returncode == 0
        assert "all equal" in r.stdout

    def test_bm_is_table_plus_verdict(self):
        # one writer: check bm prints table's rows, then only its verdict
        rng = ("--g-max", "2", "--n-max", "5")
        table = run_cli("table", "--method", "both", *rng)
        bm = run_cli("check", "bm", *rng)
        assert table.returncode == bm.returncode == 0
        cases = len(table.stdout.splitlines()) - 1
        assert bm.stdout == table.stdout + f"-- {cases} cases: all equal\n"
        assert bm.stderr == table.stderr == ""

    @pytest.mark.parametrize("n_max", ["1", "2"])
    def test_bm_refuses_a_range_with_no_case(self, n_max):
        # no (g, mu) with g = 0 and |mu| <= 2 is stable: a verdict on 0
        # cases would pass having compared nothing
        r = run_cli("check", "bm", "--g-max", "0", "--n-max", n_max)
        assert r.returncode == 65
        assert r.stdout == ""
        assert r.stderr == (
            f"error: no stable (g, mu) with g <= 0 and |mu| <= {n_max} to compare\n"
        )

    @pytest.mark.parametrize(
        "args",
        [("elsv", "--g-max", "99"), ("elsv", "--n-max", "3")],
        ids=["elsv-g-max", "elsv"],
    )
    def test_bm_flags_refused_elsewhere(self, args):
        # check elsv declares no flag, so its parser refuses each by name
        r = run_cli("check", *args)
        assert r.returncode == 64
        assert r.stderr == f"usage error: unrecognized arguments: {' '.join(args[1:])}\n"
        assert r.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [("elsv", "--cache", "/nonexistent/dir/x.json"), ("elsv", "--verbose")],
        ids=["cache", "verbose"],
    )
    def test_cache_flags_refused_elsewhere(self, args):
        r = run_cli("check", *args)
        assert r.returncode == 64
        assert r.stderr == f"usage error: unrecognized arguments: {' '.join(args[1:])}\n"
        assert r.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ("bm", "--g-max", "x"),
            ("bm", "--bogus"),
            ("elsv", "--cache", "p"),
            ("--g-max", "1", "bm"),
        ],
        ids=["bad-int", "unknown-flag", "elsv-cache", "flag-before-suite"],
    )
    def test_nested_parser_refusals_exit_64(self, args):
        # argparse's own exit code, 2, is the mismatch code here: every
        # refusal of a suite's parser must come out as a usage error
        r = run_cli("check", *args)
        assert r.returncode == 64
        assert r.stdout == ""
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:")

    @pytest.mark.parametrize(
        "args",
        [("--g-max", "1", "bm"), ("--n-max=3", "bm"), ("--verbose", "bm"), ("--cache", "f", "bm")],
    )
    def test_flag_before_suite_named(self, args):
        # the flag is named, not the value argparse would take for the suite
        r = run_cli("check", *args)
        flag = args[0].partition("=")[0]
        assert r.returncode == 64 and r.stdout == ""
        assert r.stderr == (
            f"usage error: argument {flag}: a suite's flags follow its name, "
            f"as in 'check bm {flag} ...'\n"
        )

    @pytest.mark.parametrize("suite,flags", [("bm", True), ("elsv", False)])
    def test_suite_help(self, suite, flags):
        r = run_cli("check", suite, "--help")
        assert r.returncode == 0 and r.stderr == ""
        assert r.stdout.startswith(f"usage: hurwitzrec check {suite} ")
        assert ("--g-max" in r.stdout) == ("--n-max" in r.stdout) == flags


class TestCache:
    def test_warm_cache_byte_identical(self, tmp_path):
        path = str(tmp_path / "forms.json")
        args = ("wkg", "1", "2", "--cache", path)
        cold = run_cli(*args)
        assert cold.returncode == 0 and os.path.exists(path)
        warm = run_cli(*args)
        assert warm.stdout == cold.stdout

    def test_corrupted_fingerprint_ignored(self, tmp_path):
        path = str(tmp_path / "forms.json")
        base = ("check", "bm", "--g-max", "1", "--n-max", "2", "--cache", path)
        first = run_cli(*base)
        assert first.returncode == 0
        doc = json.loads(Path(path).read_text())
        doc["fingerprint"] = "0" * 16
        Path(path).write_text(json.dumps(doc))
        second = run_cli(*base)
        assert second.returncode == 0
        assert second.stdout == first.stdout

    def test_garbage_cache_file_ignored(self, tmp_path):
        path = str(tmp_path / "forms.json")
        Path(path).write_text("{not json")
        r = run_cli("wkg", "0", "3", "--cache", path)
        assert r.returncode == 0

    def test_deeply_nested_file_ignored(self, tmp_path):
        # json.load raises RecursionError, not ValueError, on this nesting
        path = tmp_path / "forms.json"
        path.write_text("[" * 200_000)
        cold = run_cli("wkg", "1", "1")
        nested = run_cli("wkg", "1", "1", "--cache", str(path))
        assert nested.returncode == 0
        assert nested.stdout == cold.stdout

    def test_pre_rewrite_fingerprint_ignored(self, tmp_path):
        from hurwitzrec.cache import CACHE_FORMAT, load_cache
        from hurwitzrec.toprec import FINGERPRINT

        # the fingerprint of the default sign convention before the engine
        # version joined it, when the engine still summed Fractions
        old = "5d178ea0f91098e9"
        path = str(tmp_path / "forms.json")
        form = {"g": 0, "k": 3, "terms": [{"e": [1, 1, 1], "c": "1/1"}]}
        seal(path, {"format": CACHE_FORMAT, "fingerprint": old, "poleforms": [form]})
        assert len(load_cache(path, old)) == 1
        assert load_cache(path, FINGERPRINT) == {}

    def test_warm_run_leaves_file_untouched(self, tmp_path):
        path = str(tmp_path / "forms.json")
        args = ("table", "--method", "recursion", "--g-max", "1", "--n-max", "3",
                "--cache", path)
        assert run_cli(*args).returncode == 0
        # a stamp no rewrite can reproduce, whatever the clock's resolution
        os.utime(path, ns=(10**9, 10**9))
        before = Path(path).read_bytes(), os.stat(path)
        assert run_cli(*args).returncode == 0
        after = Path(path).read_bytes(), os.stat(path)
        assert after[0] == before[0]
        assert (after[1].st_mtime_ns, after[1].st_ino) == (10**9, before[1].st_ino)
        # a request that computes a form the file lacks still writes it
        assert run_cli("wkg", "0", "5", "--cache", path).returncode == 0
        assert os.stat(path).st_mtime_ns != 10**9
        entries = json.loads(Path(path).read_text())["poleforms"]
        assert len(entries) == len(json.loads(before[0])["poleforms"]) + 1

    def test_smaller_request_reuses_larger_file(self, tmp_path):
        path = str(tmp_path / "forms.json")
        base = ("table", "--method", "recursion", "--n-max", "3", "--cache", path)
        assert run_cli(*base, "--g-max", "2").returncode == 0
        os.utime(path, ns=(10**9, 10**9))
        before = Path(path).read_bytes(), os.stat(path).st_ino
        # a lower truncation order than the file was written at, same forms
        assert run_cli(*base, "--g-max", "1").returncode == 0
        assert Path(path).read_bytes() == before[0]
        assert (os.stat(path).st_mtime_ns, os.stat(path).st_ino) == (10**9, before[1])

    def test_format_one_file_ignored(self, tmp_path):
        from hurwitzrec.cache import CACHE_FORMAT, load_cache
        from hurwitzrec.toprec import FINGERPRINT

        # the previous layout, keyed by (g, k, trunc_order)
        path = str(tmp_path / "forms.json")
        form = {"g": 0, "k": 3, "terms": [{"a": [2, 2, 2], "c": "1/1"}], "trunc_order": 10}
        doc = {"format": 1, "fingerprint": FINGERPRINT, "poleforms": [form]}
        Path(path).write_text(json.dumps(doc))
        assert load_cache(path, FINGERPRINT) == {}
        assert run_cli("wkg", "0", "3", "--cache", path).returncode == 0
        rewritten = json.loads(Path(path).read_text())
        assert rewritten["format"] == CACHE_FORMAT
        assert len(load_cache(path, FINGERPRINT)) == 1

    def test_repeated_form_ignored(self, tmp_path):
        path = str(tmp_path / "forms.json")
        args = ("table", "--method", "recursion", "--g-max", "1", "--n-max", "2",
                "--cache", path)
        cold = run_cli(*args)
        doc = json.loads(Path(path).read_text())
        (entry,) = [e for e in doc["poleforms"] if (e["g"], e["k"]) == (1, 1)]
        twin = json.loads(json.dumps(entry))
        twin["terms"][0]["c"] = "7/1"
        doc["poleforms"].append(twin)
        seal(path, doc)
        warm = run_cli(*args)
        assert warm.returncode == 0
        assert warm.stdout == cold.stdout

    def test_flush_merges_file_as_found(self, tmp_path):
        from hurwitzrec.cache import attach_cache, load_cache
        from hurwitzrec.toprec import FINGERPRINT, LambertEngine, required_order

        # two runs sharing one file, each unaware of the other's forms
        path = str(tmp_path / "forms.json")
        first = LambertEngine(order=required_order(1, 1))
        second = LambertEngine(order=required_order(1, 1))
        flush_first, flush_second = attach_cache(first, path), attach_cache(second, path)
        first.w(0, 3)
        second.w(1, 1)
        flush_first()
        flush_second()
        loaded = load_cache(path, FINGERPRINT)
        assert loaded == {(0, 3): first.w(0, 3), (1, 1): second.w(1, 1)}

    def test_warm_engine_builds_no_curve(self, tmp_path):
        from hurwitzrec.cache import attach_cache
        from hurwitzrec.toprec import LambertEngine, required_order

        path = str(tmp_path / "forms.json")
        cold = LambertEngine(order=required_order(1, 2))
        flush = attach_cache(cold, path)
        form = cold.w(1, 2)
        flush()
        warm = LambertEngine(order=required_order(1, 2))
        attach_cache(warm, path)
        assert warm.w(1, 2) == form
        # no curve data: no recursion, so neither sigma, nor the two halves
        # the residue table is cleared from, nor the table, nor the pair
        # table read from it
        assert "recursion" not in warm.__dict__

    def test_symlink_at_path_keeps_link_and_writes_target(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("{}")
        link = tmp_path / "link.json"
        link.symlink_to("target.json")
        cold = run_cli("wkg", "1", "1", "--cache", str(link))
        assert cold.returncode == 0
        assert link.is_symlink() and os.readlink(link) == "target.json"
        doc = json.loads(target.read_text())
        assert [(e["g"], e["k"]) for e in doc["poleforms"]] == [(1, 1)]
        # the lock sits beside the file that is written, not beside the link
        assert (tmp_path / "target.json.lock").exists()
        assert not (tmp_path / "link.json.lock").exists()
        written = target.read_bytes()
        warm = run_cli("wkg", "1", "1", "--cache", str(link))
        assert (warm.returncode, warm.stdout, warm.stderr) == (0, cold.stdout, cold.stderr)
        assert link.is_symlink() and target.read_bytes() == written

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c", "1/0"),  # a zero denominator
            ("c", 5),  # a coefficient that is a JSON number, not a string
            ("e", [1.0]),  # a basis index that is not an int
            ("e", [True]),  # a bool is not a basis index
            ("e", [0]),  # stable forms have no index below 1
            ("e", [3]),  # W(1,1) has no key above the window sum(e_i - 1) <= 1
        ],
        ids=["zero-denominator", "number-coefficient", "float-order", "bool-order",
             "index-zero", "above-window"],
    )
    def test_malformed_entry_ignored(self, tmp_path, field, value):
        path = str(tmp_path / "forms.json")
        args = ("table", "--method", "recursion", "--g-max", "1", "--n-max", "2",
                "--cache", path)
        cold = run_cli(*args)
        assert cold.returncode == 0
        doc = json.loads(Path(path).read_text())
        (entry,) = [e for e in doc["poleforms"] if (e["g"], e["k"]) == (1, 1)]
        assert entry["terms"] == [{"e": [1], "c": "-1/24"}, {"e": [2], "c": "1/24"}]
        entry["terms"][0][field] = value
        seal(path, doc)
        warm = run_cli(*args)
        assert warm.returncode == 0
        assert warm.stdout == cold.stdout

    @pytest.mark.parametrize(
        "edit",
        [
            lambda entry: entry.update(g=True),  # hashes equal to 1 as a key
            lambda entry: entry.update(g=1.0),  # so does a float
            lambda entry: entry["terms"].append({"e": [2], "c": "5/24"}),  # a repeated key
        ],
        ids=["bool-genus", "float-genus", "repeated-key"],
    )
    def test_entry_passing_for_another_ignored(self, tmp_path, edit):
        path = str(tmp_path / "forms.json")
        cold = run_cli("wkg", "1", "1")
        assert cold.returncode == 0
        assert run_cli("wkg", "1", "1", "--cache", path).stdout == cold.stdout
        doc = json.loads(Path(path).read_text())
        (entry,) = doc["poleforms"]
        edit(entry)
        seal(path, doc)
        warm = run_cli("wkg", "1", "1", "--cache", path)
        assert (warm.returncode, warm.stdout) == (cold.returncode, cold.stdout)

    def test_key_below_window_ignored(self, tmp_path):
        from hurwitzrec.cache import load_cache
        from hurwitzrec.toprec import FINGERPRINT

        # W(2,1) has keys with sum(e_i - 1) in [2, 3]; (2,) is below
        path = str(tmp_path / "forms.json")
        args = ("table", "--method", "recursion", "--g-max", "2", "--n-max", "2",
                "--cache", path)
        cold = run_cli(*args)
        assert cold.returncode == 0
        doc = json.loads(Path(path).read_text())
        (entry,) = [e for e in doc["poleforms"] if (e["g"], e["k"]) == (2, 1)]
        assert entry["terms"][0]["e"] == [3]
        entry["terms"][0]["e"] = [2]
        seal(path, doc)
        assert load_cache(path, FINGERPRINT) == {}
        warm = run_cli(*args)
        assert warm.returncode == 0
        assert warm.stdout == cold.stdout

    @pytest.mark.parametrize("digest", ["stale", "missing", "off-by-one"])
    def test_edited_form_ignored(self, tmp_path, digest):
        """W(1,1)'s coefficient at the key [1] edited from -1/24 to 7/1, inside
        the Hodge window, so that only the digest tells: read as it stands,
        the file gives H_{1,(1)} = 169/12 instead of 0.  The file is edited
        without a new digest, or sealed and then its digest dropped or moved
        by one; each run prints the cold bytes and rewrites the file."""
        from hurwitzrec.cache import load_cache
        from hurwitzrec.toprec import FINGERPRINT

        path = tmp_path / "forms.json"
        table = ("table", "--method", "recursion", "--g-max", "1", "--n-max", "3")
        cold = {args: run_cli(*args) for args in (table, ("wkg", "1", "1"))}
        assert run_cli(*table, "--cache", str(path)).returncode == 0
        written = path.read_text()
        w11 = load_cache(str(path), FINGERPRINT)[(1, 1)]

        def edit():
            doc = json.loads(written)
            (entry,) = [e for e in doc["poleforms"] if (e["g"], e["k"]) == (1, 1)]
            assert entry["terms"][0] == {"e": [1], "c": "-1/24"}
            entry["terms"][0]["c"] = "7/1"
            if digest != "stale":
                seal(path, doc)
                doc = json.loads(path.read_text())
                if digest == "missing":
                    del doc["digest"]
                else:
                    doc["digest"] += 1
            path.write_text(json.dumps(doc))

        for args, want in cold.items():
            edit()
            warm = run_cli(*args, "--cache", str(path))
            assert (warm.returncode, warm.stdout, warm.stderr) == (0, want.stdout, want.stderr)
            assert load_cache(str(path), FINGERPRINT)[(1, 1)] == w11

    def test_format_two_pole_file_ignored(self, tmp_path):
        from hurwitzrec.cache import CACHE_FORMAT, load_cache
        from hurwitzrec.toprec import FINGERPRINT, LambertEngine, required_order

        # the layout before forms were stored in the ELSV basis: format 2,
        # each entry the pole terms as `wkg` prints them
        path = str(tmp_path / "forms.json")
        engine = LambertEngine(order=required_order(1, 3))
        forms = [json.loads(engine.w(g, k).canonical_json()) for g, k in [(0, 3), (1, 1)]]
        doc = {"format": 2, "fingerprint": FINGERPRINT, "poleforms": forms}
        Path(path).write_text(json.dumps(doc))
        assert load_cache(path, FINGERPRINT) == {}
        args = ("table", "--method", "recursion", "--g-max", "1", "--n-max", "3")
        cold = run_cli(*args)
        warm = run_cli(*args, "--cache", path)
        assert warm.returncode == cold.returncode == 0
        assert warm.stdout == cold.stdout
        assert json.loads(Path(path).read_text())["format"] == CACHE_FORMAT

    def test_concurrent_flushes_keep_both_forms(self, tmp_path):
        """Two processes flush disjoint forms into one file at the same time.
        Each holds its re-read for 0.5 s before it writes, so without the
        lock both would merge into the same old file and one side's form
        would be lost."""
        from hurwitzrec.cache import load_cache
        from hurwitzrec.toprec import FINGERPRINT

        path, go = tmp_path / "forms.json", tmp_path / "go"
        ready = [tmp_path / "ready-0", tmp_path / "ready-1"]
        child = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from hurwitzrec import cache\n"
            "from hurwitzrec.toprec import LambertEngine\n"
            "path, go, ready = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])\n"
            "g, k = int(sys.argv[4]), int(sys.argv[5])\n"
            "engine = LambertEngine(order=10)\n"
            "flush = cache.attach_cache(engine, path)\n"
            "engine.w(g, k)\n"
            "read = cache.load_cache\n"
            "def slow_read(*args):\n"
            "    forms = read(*args)\n"
            "    time.sleep(0.5)\n"
            "    return forms\n"
            "cache.load_cache = slow_read\n"
            "ready.touch()\n"
            "while not go.exists():\n"
            "    time.sleep(0.01)\n"
            "flush()\n"
        )
        env = cli_env()
        procs = [
            subprocess.Popen([sys.executable, "-c", child, str(path), str(go), str(r), g, k], env=env)
            for r, (g, k) in zip(ready, [("0", "3"), ("1", "1")])
        ]
        deadline = time.monotonic() + 120
        while not all(r.exists() for r in ready) and time.monotonic() < deadline:
            time.sleep(0.01)
        go.touch()
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
        assert sorted(load_cache(str(path), FINGERPRINT)) == [(0, 3), (1, 1)]

    def test_empty_form_ignored(self, tmp_path):
        # no stable W(g, k) is zero: read as one, W(1,1) would give H_{1,(d)} = 0
        path = str(tmp_path / "forms.json")
        args = ("table", "--method", "recursion", "--g-max", "1", "--n-max", "3",
                "--cache", path)
        cold = run_cli(*args)
        assert cold.returncode == 0
        doc = json.loads(Path(path).read_text())
        (entry,) = [e for e in doc["poleforms"] if (e["g"], e["k"]) == (1, 1)]
        entry["terms"] = []
        seal(path, doc)
        warm = run_cli(*args)
        assert warm.returncode == 0
        assert warm.stdout == cold.stdout

    @pytest.mark.parametrize("g, k", [(0, 1), (0, 2), (1, 0), (-1, 3)])
    def test_unstable_entry_ignored(self, tmp_path, g, k):
        from hurwitzrec.cache import CACHE_FORMAT, load_cache

        path = str(tmp_path / "forms.json")
        stable = {"g": 0, "k": 3, "terms": [{"e": [1, 1, 1], "c": "1/1"}]}
        # one term, so that an empty form is not what refuses it; W(1,0)'s
        # key () lies inside its window, so only the stability check can
        unstable = {"g": g, "k": k, "terms": [{"e": [1] * k, "c": "1/1"}]}
        doc = {"format": CACHE_FORMAT, "fingerprint": "f", "poleforms": [stable]}
        seal(path, doc)
        assert len(load_cache(path, "f")) == 1
        doc["poleforms"].append(unstable)
        seal(path, doc)
        assert load_cache(path, "f") == {}

    def test_interrupted_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        from hurwitzrec import cache

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cache.json, "dumps", interrupted)
        path = tmp_path / "forms.json"
        with pytest.raises(KeyboardInterrupt):
            cache.save_cache(str(path), "fingerprint", {})
        assert list(tmp_path.iterdir()) == []

    def test_env_var_cache_path(self, tmp_path):
        path = str(tmp_path / "envcache.json")
        r = run_cli("wkg", "0", "3", env_extra={"HURWITZREC_CACHE": path})
        assert r.returncode == 0 and os.path.exists(path)

    def test_empty_cache_flag_refused(self, tmp_path):
        # an explicit flag wins over the environment, so an empty one is an
        # error, not a fall back to HURWITZREC_CACHE
        path = tmp_path / "envcache.json"
        r = run_cli("wkg", "1", "1", "--cache", "", env_extra={"HURWITZREC_CACHE": str(path)})
        assert r.returncode == 64
        assert r.stderr == "usage error: argument --cache: an empty path names no file\n"
        assert r.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_empty_env_var_means_no_cache(self):
        r = run_cli("wkg", "0", "3", "--verbose", env_extra={"HURWITZREC_CACHE": ""})
        assert r.returncode == 0
        # --verbose names an attached cache, and none is attached
        assert r.stderr == ""


class TestSizeBound:
    @pytest.mark.parametrize(
        "args,bound",
        [
            (("wkg", "9", "9"), "size bound of order 40"),
            (("table", "--g-max", "9", "--n-max", "9"), "size bound of order 40"),
            (("table", "--method", "oracle", "--n-max", "13"), "size bound of 12"),
            (("check", "bm", "--g-max", "9", "--n-max", "9"), "size bound of order 40"),
            (("check", "bm", "--n-max", "13"), "size bound of 12"),
            (("table", "--method", "oracle", "--g-max", "7"), "genus bound of 6"),
        ],
    )
    def test_oversized_request_exit_65(self, tmp_path, args, bound):
        cache = tmp_path / "cache.json"
        r = run_cli(*args, "--cache", str(cache))
        assert r.returncode == 65
        assert bound in r.stderr
        assert "Traceback" not in r.stderr
        assert r.stdout == ""
        # refused before anything was computed, so no cache file was written
        assert not cache.exists()


# Runs the CLI in a fresh interpreter and prints, as the last line of stderr,
# the package and hashing modules loaded when it returns.
LOADED_PROBE = """
import json, sys
from hurwitzrec.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
names = sorted(m for m in sys.modules if m.split(".")[0] in ("hurwitzrec", "hashlib", "_hashlib"))
print(json.dumps(names), file=sys.stderr)
sys.exit(code)
"""


def loaded_modules(*args):
    r = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *args],
        capture_output=True, text=True, env=cli_env(), timeout=300,
    )
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stderr.splitlines()[-1]))


class TestImports:
    """Each request loads only the layers it runs."""

    def test_help_loads_no_layer(self):
        assert loaded_modules("--help") == {"hurwitzrec", "hurwitzrec.cli"}

    def test_oracle_table_loads_no_curve_code(self):
        loaded = loaded_modules("table", "--method", "oracle", "--g-max", "1", "--n-max", "5")
        assert "hurwitzrec.partitions" in loaded
        curve = {"toprec", "sweeps", "series", "cache", "bridge"}
        assert not loaded & {f"hurwitzrec.{name}" for name in curve}

    def test_elsv_check_loads_no_curve_code(self):
        loaded = loaded_modules("check", "elsv")
        assert "hurwitzrec.bridge" in loaded
        assert not loaded & {"hurwitzrec.toprec", "hurwitzrec.sweeps", "hurwitzrec.series"}

    @pytest.mark.parametrize(
        "args",
        [("table", "--method", "oracle", "--g-max", "1", "--n-max", "5"), ("check", "elsv")],
        ids=["oracle-table", "check-elsv"],
    )
    def test_oracle_requests_load_no_form_code(self, args):
        # both read only the character oracle and print its values
        assert "hurwitzrec.poleform" not in loaded_modules(*args)

    def test_recursion_table_loads_no_oracle_code(self, tmp_path):
        # the shared helpers come from common, so a recursion request, cold
        # or on a warm cache, compiles no part of the character oracle
        path = tmp_path / "forms.json"
        args = ("table", "--method", "recursion", "--g-max", "2", "--n-max", "3")
        for run in ("cold", "warm"):
            loaded = loaded_modules(*args, "--cache", str(path))
            assert {"hurwitzrec.toprec", "hurwitzrec.common", "hurwitzrec.cache"} <= loaded, run
            assert "hurwitzrec.partitions" not in loaded, run
        assert path.exists()

    @pytest.mark.parametrize(
        "args",
        [("table", "--method", "recursion", "--g-max", "1", "--n-max", "4"), ("wkg", "1", "2")],
        ids=["recursion-table", "wkg"],
    )
    def test_warm_recursion_loads_no_recursion_code(self, tmp_path, args):
        # a request whose forms all come from the cache runs only the
        # extraction: it compiles neither the sweeps nor the series they
        # run on, both of which the same request loads on an empty cache
        path = tmp_path / "forms.json"
        recursion = {"hurwitzrec.sweeps", "hurwitzrec.series"}
        cold = loaded_modules(*args, "--cache", str(path))
        assert path.exists() and recursion <= cold
        warm = loaded_modules(*args, "--cache", str(path))
        assert {"hurwitzrec.toprec", "hurwitzrec.cache", "hurwitzrec.poleform"} <= warm
        assert not warm & recursion

    def test_cached_recursion_loads_no_hashlib(self, tmp_path):
        path = tmp_path / "forms.json"
        args = ("table", "--method", "recursion", "--g-max", "1", "--n-max", "3", "--cache", str(path))
        for run in ("cold", "warm"):
            loaded = loaded_modules(*args)
            assert path.exists() and "hurwitzrec.cache" in loaded, run
            assert not loaded & {"hashlib", "_hashlib"}, run


class TestExitCodes:
    def test_broken_pipe_exit_74(self):
        with subprocess.Popen(
            CLI + ["table", "--g-max", "1", "--n-max", "3", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
        ) as proc:
            proc.stdout.close()  # the reader is gone before the first write
            stderr = proc.stderr.read()
            assert proc.wait(timeout=300) == 74
        assert "Traceback" not in stderr

    def test_closed_stdout_exit_74(self):
        # the shell starts the CLI with descriptor 1 closed
        r = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", *CLI, "check", "elsv"],
            stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=60,
        )
        assert r.returncode == 74
        assert r.stderr == "error: cannot write to stdout: it is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_stdout_exit_74(self):
        # every write to /dev/full fails with ENOSPC; the flush at exit must
        # not fail again, which would exit 120
        with open("/dev/full", "w") as full:
            r = subprocess.run(
                CLI + ["table", "--method", "oracle", "--g-max", "0", "--n-max", "2"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=60,
            )
        assert r.returncode == 74
        assert r.stderr == f"error: cannot write to stdout: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize(
        "target, reason",
        [("missing/forms.json", "No such file or directory"), ("adir", "Is a directory")],
        ids=["missing-directory", "directory-at-path"],
    )
    def test_cache_write_failure_exit_74(self, tmp_path, target, reason):
        (tmp_path / "adir").mkdir()
        path = str(tmp_path / target)
        r = run_cli("wkg", "1", "1", "--cache", path)
        assert r.returncode == 74
        assert r.stderr == f"error: cannot write the cache file {path}: {reason}\n"
        assert list(tmp_path.rglob("*.tmp.*")) == []
        assert not (tmp_path / "adir.lock").exists()

    def test_cache_fifo_at_path_exit_74(self, tmp_path):
        # a FIFO is neither read (opening it would block until a writer
        # came) nor replaced; the timeout makes a blocked run fail, not hang
        path = tmp_path / "forms.fifo"
        os.mkfifo(path)
        r = run_cli("wkg", "1", "1", "--cache", str(path), timeout=60)
        assert r.returncode == 74
        assert r.stderr == f"error: cannot write the cache file {path}: not a regular file\n"
        assert stat.S_ISFIFO(os.stat(path).st_mode)
        assert list(tmp_path.glob("*.lock")) == [] and list(tmp_path.glob("*.tmp.*")) == []

    def test_cache_fifo_at_lock_exit_74(self, tmp_path):
        # opening a FIFO at the lock path would block until a reader came;
        # it is refused before it is opened, and the timeout makes a blocked
        # run fail, not hang
        path = tmp_path / "forms.json"
        lock = tmp_path / "forms.json.lock"
        os.mkfifo(lock)
        r = run_cli("wkg", "1", "1", "--cache", str(path), timeout=60)
        assert r.returncode == 74
        assert r.stderr == (
            f"error: cannot write the cache file {path}: its lock {lock} is not a regular file\n"
        )
        assert stat.S_ISFIFO(os.stat(lock).st_mode)
        assert not path.exists() and list(tmp_path.glob("*.tmp.*")) == []

    @pytest.fixture
    def flipped_kernel_sign(self, monkeypatch):
        # every engine main builds gets the opposite kernel sign, as
        # TestVerifyBM::test_corrupted_sign_fails_at_smallest_stable_case
        # sets it on one engine through its Recursion.halves
        from hurwitzrec import sweeps

        halves = sweeps.Recursion.halves.func

        def flipped(self):
            rhat, (den_w, what) = halves(self)
            return rhat, (den_w, [-c for c in what])

        monkeypatch.delenv("HURWITZREC_CACHE", raising=False)
        monkeypatch.setattr(sweeps.Recursion, "halves", property(flipped))

    def test_table_mismatch_exit_2(self, flipped_kernel_sign, capsys):
        from hurwitzrec import cli

        code = cli.main(["table", "--method", "both", "--g-max", "1", "--n-max", "3"])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        rows = out.splitlines()[1:]
        # every stable row with g <= 1, |mu| <= 3 is printed, mismatch or not
        assert len(rows) == 7
        assert rows[0].startswith(" 0  (1,1,1) ") and rows[0].endswith("  NO")

    def test_check_bm_mismatch_exit_2(self, flipped_kernel_sign, capsys):
        from hurwitzrec import cli

        code = cli.main(["check", "bm", "--g-max", "1", "--n-max", "3"])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        *header, row, verdict = out.splitlines()
        # the rows end at the first mismatch, and the verdict names it
        assert header == [" g  mu                    recursion           oracle  equal"]
        assert row.startswith(" 0  (1,1,1) ") and row.endswith("  NO")
        assert verdict == "-- 1 cases: MISMATCH at g=0 mu=(1,1,1)"

    def test_interrupt_exit_130(self, monkeypatch, capsys):
        from hurwitzrec import cli, extract

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(extract, "table_rows", interrupted)
        try:
            code = cli.main(["table", "--method", "oracle", "--g-max", "0", "--n-max", "1"])
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped main")
        out, err = capsys.readouterr()
        assert code == 130
        assert (out, err) == ("", "interrupted\n")

    def test_truncation_error_exit_70(self, monkeypatch, capsys):
        # the CLI chooses every truncation order itself, so a residue that
        # order cannot resolve is an internal fault, not a request out of range
        from hurwitzrec import cli, toprec
        from hurwitzrec.series import TruncationError

        def unresolved(self, g, k):
            raise TruncationError("engine order 11 cannot resolve the residue")

        monkeypatch.delenv("HURWITZREC_CACHE", raising=False)
        monkeypatch.setattr(toprec.LambertEngine, "w", unresolved)
        code = cli.main(["wkg", "2", "2"])
        out, err = capsys.readouterr()
        assert code == 70
        assert (out, err) == ("", "internal error: engine order 11 cannot resolve the residue\n")

    def test_internal_inconsistency_exit_70(self, monkeypatch, capsys):
        # W(1,2) sweeps W(0,3) through the pair table; with one residue of the
        # pulled pair (1, 1) off by one, the slot-symmetry check of the
        # assembly fails
        from hurwitzrec import cli, sweeps

        missing = sweeps.PairTable.__missing__

        def perturbed(self, key):
            row = missing(self, key)
            if key == (1, 1):
                row[min(row)] += 1
            return row

        monkeypatch.delenv("HURWITZREC_CACHE", raising=False)
        monkeypatch.setattr(sweeps.PairTable, "__missing__", perturbed)
        code = cli.main(["wkg", "1", "2"])
        out, err = capsys.readouterr()
        assert code == 70
        assert out == ""
        assert "slot-symmetry" in err and "Traceback" not in err
