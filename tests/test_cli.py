import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "hurwitzrec.cli"]


def run_cli(*args, env_extra=None):
    # a developer's own cache file must not leak into (or out of) the suite
    env = {k: v for k, v in os.environ.items() if k != "HURWITZREC_CACHE"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=300
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


class TestCheck:
    def test_times_suite(self):
        r = run_cli("check", "times")
        assert r.returncode == 0
        assert "t_3 = 3/1" in r.stdout
        assert "t_4 = 1/3" in r.stdout
        assert "dual routes agree" in r.stdout

    def test_series_suite(self):
        r = run_cli("check", "series")
        assert r.returncode == 0
        assert "FAIL" not in r.stdout

    def test_elsv_suite(self):
        r = run_cli("check", "elsv")
        assert r.returncode == 0
        assert "1/24" in r.stdout

    def test_bm_suite(self):
        r = run_cli("check", "bm", "--g-max", "1", "--n-max", "3")
        assert r.returncode == 0
        assert "all equal" in r.stdout


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

    def test_pre_rewrite_fingerprint_ignored(self, tmp_path):
        from hurwitzrec.cache import CACHE_FORMAT, load_cache
        from hurwitzrec.toprec import LambertEngine

        # the fingerprint of the default sign convention before the engine
        # version joined it, when the engine still summed Fractions
        old = "5d178ea0f91098e9"
        path = str(tmp_path / "forms.json")
        form = {"g": 0, "k": 3, "terms": [{"a": [2, 2, 2], "c": "1/1"}]}
        doc = {"format": CACHE_FORMAT, "fingerprint": old, "poleforms": [form]}
        Path(path).write_text(json.dumps(doc))
        assert len(load_cache(path, old)) == 1
        assert load_cache(path, LambertEngine(order=10).fingerprint()) == {}

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
        from hurwitzrec.toprec import LambertEngine

        # the previous layout, keyed by (g, k, trunc_order)
        path = str(tmp_path / "forms.json")
        fingerprint = LambertEngine().fingerprint()
        form = {"g": 0, "k": 3, "terms": [{"a": [2, 2, 2], "c": "1/1"}], "trunc_order": 10}
        doc = {"format": 1, "fingerprint": fingerprint, "poleforms": [form]}
        Path(path).write_text(json.dumps(doc))
        assert load_cache(path, fingerprint) == {}
        assert run_cli("wkg", "0", "3", "--cache", path).returncode == 0
        rewritten = json.loads(Path(path).read_text())
        assert rewritten["format"] == CACHE_FORMAT
        assert len(load_cache(path, fingerprint)) == 1

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
        Path(path).write_text(json.dumps(doc))
        warm = run_cli(*args)
        assert warm.returncode == 0
        assert warm.stdout == cold.stdout

    def test_flush_merges_file_as_found(self, tmp_path):
        from hurwitzrec.cache import attach_cache, load_cache
        from hurwitzrec.toprec import LambertEngine, required_order

        # two runs sharing one file, each unaware of the other's forms
        path = str(tmp_path / "forms.json")
        first = LambertEngine(order=required_order(1, 1))
        second = LambertEngine(order=required_order(1, 1))
        flush_first, flush_second = attach_cache(first, path), attach_cache(second, path)
        first.w(0, 3)
        second.w(1, 1)
        flush_first()
        flush_second()
        loaded = load_cache(path, first.fingerprint())
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
        assert "curve" not in warm.__dict__ and "kernel" not in warm.__dict__

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c", "1/0"),  # a zero denominator
            ("a", [2.0]),  # a pole order that is not an int
            ("a", [True]),  # a bool is not a pole order
            ("a", [1]),  # stable forms have no pole of order 1
            ("a", [5]),  # W(1,1) has no pole above order 6g - 4 + 2k = 4
        ],
        ids=["zero-denominator", "float-order", "bool-order", "order-one",
             "order-above-bound"],
    )
    def test_malformed_entry_ignored(self, tmp_path, field, value):
        path = str(tmp_path / "forms.json")
        args = ("table", "--method", "recursion", "--g-max", "1", "--n-max", "2",
                "--cache", path)
        cold = run_cli(*args)
        assert cold.returncode == 0
        doc = json.loads(Path(path).read_text())
        (entry,) = [e for e in doc["poleforms"] if (e["g"], e["k"]) == (1, 1)]
        assert entry["terms"][0]["a"] == [2]
        entry["terms"][0][field] = value
        Path(path).write_text(json.dumps(doc))
        warm = run_cli(*args)
        assert warm.returncode == 0
        assert warm.stdout == cold.stdout

    def test_env_var_cache_path(self, tmp_path):
        path = str(tmp_path / "envcache.json")
        r = run_cli("wkg", "0", "3", env_extra={"HURWITZREC_CACHE": path})
        assert r.returncode == 0 and os.path.exists(path)


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


class TestExitCodes:
    def test_broken_pipe_exit_74(self):
        env = {k: v for k, v in os.environ.items() if k != "HURWITZREC_CACHE"}
        with subprocess.Popen(
            CLI + ["table", "--g-max", "1", "--n-max", "3", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        ) as proc:
            proc.stdout.close()  # the reader is gone before the first write
            stderr = proc.stderr.read()
            assert proc.wait(timeout=300) == 74
        assert "Traceback" not in stderr

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

    def test_internal_inconsistency_exit_70(self, tmp_path):
        # W(1,2) is assembled from W(1,1); with one coefficient of the cached
        # W(1,1) changed, the slot-symmetry check of the assembly fails.
        path = str(tmp_path / "forms.json")
        assert run_cli("wkg", "1", "1", "--cache", path).returncode == 0
        doc = json.loads(Path(path).read_text())
        (entry,) = [e for e in doc["poleforms"] if (e["g"], e["k"]) == (1, 1)]
        entry["terms"][0]["c"] = "7/1"
        Path(path).write_text(json.dumps(doc))
        r = run_cli("wkg", "1", "2", "--cache", path)
        assert r.returncode == 70
        assert r.stdout == ""
        assert "slot-symmetry" in r.stderr and "Traceback" not in r.stderr
        assert f"[(1, 1)] read from the cache file {path}" in r.stderr
        assert "truncation order" not in r.stderr
