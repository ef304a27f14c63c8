"""CLI behavior: exit codes, output determinism, violation lines, watch."""

import io
import signal
import subprocess
import sys
import threading
import time
from argparse import Namespace

import pytest

from harland import cli
from harland.engine import CacheConfig, Repository
from harland.model import Value


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_store_flag_is_required(capsys, monkeypatch):
    monkeypatch.delenv("HARLAND_STORE", raising=False)
    code, _, err = run(capsys, "stats")
    assert code == 2
    assert "--store" in err


def test_store_env_fallback(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("HARLAND_STORE", str(tmp_path / "s"))
    assert run(capsys, "init")[0] == 0
    code, out, _ = run(capsys, "stats")
    assert code == 0
    assert "documents 0" in out


def test_stats_prints_every_counter_in_sorted_order(capsys, tmp_path):
    store = str(tmp_path / "s")
    assert run(capsys, "--store", store, "init")[0] == 0
    code, out, _ = run(capsys, "--store", store, "stats")
    assert code == 0
    assert [line.split(" ")[0] for line in out.splitlines()] == [
        "backend_batches", "backend_fetches", "backend_scans", "cache_hits", "cache_misses",
        "cached_documents", "checkpoint_writes", "checksummed_bytes", "column_probes", "column_scans",
        "commits", "commits_dispatched", "crc_combines", "decoded_chunks", "decoded_meta_chunks",
        "deepest_queue", "dispatch_failures", "documents", "encoded_blocks", "evictions", "flush_failures",
        "flushes", "hub_dead_letters", "hub_lag", "plans_compiled",
    ]


def test_violation_lines_and_exit_codes(capsys, tmp_path):
    store = str(tmp_path / "s")
    assert run(capsys, "--store", store, "init")[0] == 0
    code, _, _ = run(
        capsys, "--store", store, "schema", "define", "to-do",
        "Subject:text:1..1", "Received:timestamp:1..1",
        "Deadline:timestamp:1..1", "Categories:text:0..*",
    )
    assert code == 0
    code, out, _ = run(capsys, "--store", store, "--seed", "4", "create")
    doc = out.strip()
    assert code == 0
    run(capsys, "--store", store, "set", doc, "Subject", '"write the report"')
    run(capsys, "--store", store, "set", doc, "Received", "2001-05-01T09:00:00Z")
    code, _, err = run(capsys, "--store", store, "enforce", doc, "to-do")
    assert code == 1
    assert err.splitlines() == ["VIOLATION to-do Deadline MissingRequired"]
    run(capsys, "--store", store, "set", doc, "Deadline", "2001-06-01T00:00:00Z")
    assert run(capsys, "--store", store, "enforce", doc, "to-do")[0] == 0
    # enforced schema now rejects a draining mutation
    code, _, err = run(capsys, "--store", store, "rm-prop", doc, "Subject")
    assert code == 1
    assert err.splitlines() == ["VIOLATION to-do Subject TooFewValues"]


def script(capsys, store):
    """A fixed command script; returns concatenated stdout of every step."""
    chunks = []
    for argv in (
        ["--store", store, "--seed", "7", "init"],
        ["--store", store, "schema", "define", "note", "Body:text:0..*", "Stars:integer:0..1"],
        ["--store", store, "--seed", "7", "create"],
        ["--store", store, "--seed", "7", "create", "--kind", "collection"],
        ["--store", store, "set", "00000000-0000-0007-0000-000000000001", "Body", '"alpha"', '"beta"'],
        ["--store", store, "set", "00000000-0000-0007-0000-000000000001", "Stars", "4"],
        ["--store", store, "enforce", "00000000-0000-0007-0000-000000000001", "note"],
        ["--store", store, "members", "add", "00000000-0000-0007-0000-000000000002",
         "00000000-0000-0007-0000-000000000001"],
        ["--store", store, "get", "00000000-0000-0007-0000-000000000001"],
        ["--store", store, "--format", "records", "get", "00000000-0000-0007-0000-000000000001"],
        ["--store", store, "query", "Stars >= 3"],
        ["--store", store, "members", "list", "00000000-0000-0007-0000-000000000002"],
        ["--store", store, "schema", "list"],
        ["--store", store, "schema", "show", "note"],
        ["--store", store, "flush"],
    ):
        code = cli.main(argv)
        assert code == 0, argv
        chunks.append(capsys.readouterr().out)
    return "".join(chunks)


def test_script_output_is_deterministic(capsys, tmp_path):
    first = script(capsys, str(tmp_path / "one"))
    second = script(capsys, str(tmp_path / "two"))
    assert first == second
    assert "00000000-0000-0007-0000-000000000001" in first


def test_get_text_format_is_stable(capsys, tmp_path):
    store = str(tmp_path / "s")
    run(capsys, "--store", store, "init")
    _, out, _ = run(capsys, "--store", store, "--seed", "3", "create")
    doc = out.strip()
    run(capsys, "--store", store, "set", doc, "Flag", "true")
    run(capsys, "--store", store, "set", doc, "Payload", "bytes:00ff")
    run(capsys, "--store", store, "set", doc, "Ratio", "2.5")
    code, out, _ = run(capsys, "--store", store, "get", doc)
    assert code == 0
    assert out == (
        f"id {doc}\n"
        "kind plain\n"
        "Flag = true\n"
        "Payload = bytes:00ff\n"
        "Ratio = 2.5\n"
    )


def test_query_parse_error_exits_2(capsys, tmp_path):
    store = str(tmp_path / "s")
    run(capsys, "--store", store, "init")
    code, _, err = run(capsys, "--store", store, "query", "Deadline <")
    assert code == 2
    assert err.startswith("parse error:")
    assert "position" in err


def test_unknown_document_is_a_domain_error(capsys, tmp_path):
    store = str(tmp_path / "s")
    run(capsys, "--store", store, "init")
    code, _, err = run(capsys, "--store", store, "get", "00000000-0000-0000-0000-000000000099")
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_open_missing_store_fails_cleanly(capsys, tmp_path):
    code, _, err = run(capsys, "--store", str(tmp_path / "absent"), "stats")
    assert code == 1
    assert err.startswith("error:")


def test_content_round_trip_via_files(capsys, tmp_path):
    store = str(tmp_path / "s")
    run(capsys, "--store", store, "init")
    _, out, _ = run(capsys, "--store", store, "--seed", "2", "create", "--kind", "content")
    doc = out.strip()
    src = tmp_path / "in.bin"
    src.write_bytes(b"receipt \xf0\x9f\x99\x82 bytes\x00\x01")
    assert run(capsys, "--store", store, "content", "put", doc, str(src))[0] == 0
    dst = tmp_path / "out.bin"
    assert run(capsys, "--store", store, "content", "get", doc, str(dst))[0] == 0
    assert dst.read_bytes() == src.read_bytes()
    code, out, _ = run(capsys, "--store", store, "query", 'content:"receipt"')
    assert out.strip() == doc


def _content_store(capsys, tmp_path):
    """A store holding one content document with a blob; returns (store, doc)."""
    store = str(tmp_path / "s")
    run(capsys, "--store", store, "init")
    _, out, _ = run(capsys, "--store", store, "--seed", "2", "create", "--kind", "content")
    doc = out.strip()
    src = tmp_path / "in.bin"
    src.write_bytes(b"receipt")
    assert run(capsys, "--store", store, "content", "put", doc, str(src))[0] == 0
    return store, doc


def _one_error_line(code, out, err, start):
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(start)


@pytest.mark.parametrize("replaced", ["store.hl1", "content blob"])
def test_a_directory_in_place_of_a_store_file_fails_cleanly(capsys, tmp_path, replaced):
    store, doc = _content_store(capsys, tmp_path)
    target = tmp_path / "s" / ("store.hl1" if replaced == "store.hl1" else f"content/{doc}")
    target.unlink()
    target.mkdir()
    _one_error_line(*run(capsys, "--store", store, "stats"), f"error: cannot read {target}")


def test_content_put_of_a_missing_file_fails_cleanly(capsys, tmp_path):
    store, doc = _content_store(capsys, tmp_path)
    missing = tmp_path / "absent.bin"
    code, out, err = run(capsys, "--store", store, "content", "put", doc, str(missing))
    _one_error_line(code, out, err, "error:")
    assert str(missing) in err
    assert run(capsys, "--store", store, "content", "get", doc)[:2] == (0, "receipt")


def test_content_get_into_a_missing_directory_fails_cleanly(capsys, tmp_path):
    store, doc = _content_store(capsys, tmp_path)
    target = tmp_path / "absent" / "out.bin"
    code, out, err = run(capsys, "--store", store, "content", "get", doc, str(target))
    _one_error_line(code, out, err, "error:")
    assert str(target) in err
    assert not target.parent.exists()


def test_demo_pipeline_cli(capsys, tmp_path):
    store = str(tmp_path / "s")
    run(capsys, "--store", store, "init")
    code, out, _ = run(capsys, "--store", store, "--seed", "6", "demo-pipeline", "--docs", "10")
    assert code == 0
    assert "completed true" in out
    assert "count-monotonic true" in out
    assert "final-count 10" in out
    assert "dead-letters 0" in out


def test_watch_streams_deliveries_in_process():
    repo = Repository.in_memory(config=CacheConfig(auto_flush=False), id_seed=8)
    try:
        out = io.StringIO()
        args = Namespace(expr="exists(x)", max=2)
        created = []

        def commit_some():
            time.sleep(0.05)
            for _ in range(2):
                doc = repo.create_document()
                doc.set_property("x", [Value.integer(1)])
                created.append(doc.doc_id)

        t = threading.Thread(target=commit_some)
        t.start()
        code = cli._run_watch(repo, args, out)
        t.join()
        assert code == 0
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        got_ids = [line.split("\t")[1] for line in lines]
        assert got_ids == [str(d) for d in created]
        seqs = [int(line.split("\t")[0]) for line in lines]
        assert seqs == sorted(seqs)
    finally:
        repo.close()


def test_watch_sigint_exits_cleanly(tmp_path):
    store = str(tmp_path / "s")
    assert cli.main(["--store", store, "init"]) == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "harland.cli", "--store", store, "watch", "exists(x)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        time.sleep(1.0)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()  # a no-op once it has exited
        proc.wait()
    assert proc.returncode == 0
    assert out == b""
    assert b"Traceback" not in err


def test_init_below_a_regular_file_fails_cleanly(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "--store", str(blocker / "s"), "init")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot create")


def _parse_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


NESTED = {"schema": ("define", "list", "show"), "members": ("add", "rm", "list"), "content": ("put", "get")}
USAGE_ERRORS = (
    [], ["bogus"], ["--store"], ["--store", "s", "get"], ["get", "a", "b"], ["create", "--kind", "x"],
    ["set", "id", "prop"], ["schema"], ["schema", "nope"], ["members", "add", "c"], ["content", "put"],
    ["--seed", "x", "get", "i"], ["--store=s", "watch", "q", "--max", "n"], ["--sto", "s", "get"],
    ["get", "--bogus", "i"], ["demo-pipeline", "--docs", "1.5"], ["--format", "xml", "stats"],
    ["--", "get", "i"], ["-h", "get"], ["get", "i", "--store", "s"],
)


def test_one_command_parser_answers_as_the_full_tree(capsys):
    """main builds only the command argv names; help and usage errors must
    read byte for byte as the full tree's."""
    cases = [["--help"], ["-h"]] + [[name, "--help"] for name in cli._COMMANDS]
    cases += [[name, sub, "--help"] for name, subs in NESTED.items() for sub in subs]
    for argv in cases + [list(argv) for argv in USAGE_ERRORS]:
        full = _parse_exit(capsys, cli.build_parser().parse_args, argv)
        assert _parse_exit(capsys, cli.main, argv) == full, argv
        assert full[0] == (0 if "--help" in argv or "-h" in argv else 2), argv
    assert cli._command_in(["--store", "s", "--seed=3", "query", "x"]) == "query"
    assert cli._command_in(["--sto", "s", "get"]) is None
