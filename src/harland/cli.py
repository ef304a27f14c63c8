"""Command-line shell over the repository.

Exit codes: 0 success, 1 domain error, 2 usage or parse error. Domain
errors print a single message to stderr; schema problems print one
`VIOLATION <schema> <prop> <reason>` line each. Output is deterministic
for a fixed --seed: query results are sorted, record output reuses the
store file's tab-separated encoding.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from harland.coordination import run_pipeline_demo
from harland.engine import CacheConfig, Repository
from harland.errors import (
    HarlandError,
    NotConforming,
    ParseError,
    SchemaViolation,
)
from harland.model import Constraint, DocumentKind, Schema
from harland.parsing import parse_cli_literal, render_literal
from harland.store import _fields, encode_value, schema_record


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser for every command, or for the one command named: a
    command's usage, help and errors do not depend on its siblings, so the
    one-command tree parses that command exactly as the full tree does."""
    p = argparse.ArgumentParser(
        prog="harland",
        description="Embedded document store with schema enforcement and slice prefetching.",
    )
    p.add_argument("--store", default=os.environ.get("HARLAND_STORE"),
                   help="store directory (env: HARLAND_STORE)")
    p.add_argument("--cache-docs", type=int, default=1024, help="document cache limit")
    p.add_argument("--flush-ms", type=int, default=500, help="writeback interval in milliseconds")
    p.add_argument("--format", dest="fmt", choices=("text", "records"), default="text",
                   help="records reuses the store file's tab-separated encoding")
    p.add_argument("--seed", type=int, default=None, help="deterministic document ids")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if command is None or name == command:
            add_arguments(sub.add_parser(name, help=help_text))
    return p


# the options before the command; each takes one value
_GLOBAL_OPTIONS = frozenset({"--store", "--cache-docs", "--flush-ms", "--format", "--seed"})


def _command_in(argv: list[str]) -> Optional[str]:
    """The command argv names after nothing but global options spelled out
    in full, or None (no command, help, an abbreviation or an unknown option
    first), for which only the full tree gives argparse's own answer."""
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _GLOBAL_OPTIONS:
            i += 2
        elif arg.partition("=")[0] in _GLOBAL_OPTIONS:
            i += 1
        else:
            return arg if arg in _COMMANDS else None
    return None


def _no_arguments(c: argparse.ArgumentParser) -> None:
    pass


def _create_arguments(c: argparse.ArgumentParser) -> None:
    c.add_argument("--kind", choices=("plain", "collection", "content"), default="plain")


def _values_arguments(c: argparse.ArgumentParser) -> None:
    c.add_argument("id")
    c.add_argument("prop")
    c.add_argument("values", nargs="+", metavar="VALUE",
                   help="typed literal, e.g. 42, 2.5, true, 2001-05-01T00:00:00Z, "
                        "text, or tagged: text:..., integer:..., float:..., "
                        "boolean:..., timestamp:..., bytes:<hex>")


def _prop_arguments(c: argparse.ArgumentParser) -> None:
    c.add_argument("id")
    c.add_argument("prop")


def _id_argument(c: argparse.ArgumentParser) -> None:
    c.add_argument("id")


def _schema_arguments(c: argparse.ArgumentParser) -> None:
    ssub = c.add_subparsers(dest="schema_command", required=True)
    d = ssub.add_parser("define", help="define a schema")
    d.add_argument("name")
    d.add_argument("constraints", nargs="*", metavar="PROP:TYPE:ARITY",
                   help="e.g. Subject:text:1..1 Categories:text:0..*")
    ssub.add_parser("list", help="list schema names in registration order")
    s = ssub.add_parser("show", help="print one schema's constraints")
    s.add_argument("name")


def _enforce_arguments(c: argparse.ArgumentParser) -> None:
    c.add_argument("id")
    c.add_argument("schema")


def _expr_argument(c: argparse.ArgumentParser) -> None:
    c.add_argument("expr")


def _members_arguments(c: argparse.ArgumentParser) -> None:
    msub = c.add_subparsers(dest="members_command", required=True)
    for name in ("add", "rm"):
        m = msub.add_parser(name)
        m.add_argument("collection")
        m.add_argument("id")
    m = msub.add_parser("list")
    m.add_argument("collection")


def _content_arguments(c: argparse.ArgumentParser) -> None:
    csub = c.add_subparsers(dest="content_command", required=True)
    m = csub.add_parser("put")
    m.add_argument("id")
    m.add_argument("file", nargs="?", help="input file; stdin when omitted or '-'")
    m = csub.add_parser("get")
    m.add_argument("id")
    m.add_argument("file", nargs="?", help="output file; stdout when omitted or '-'")


def _watch_arguments(c: argparse.ArgumentParser) -> None:
    c.add_argument("expr")
    c.add_argument("--max", type=int, default=None, help="exit after N deliveries")


def _demo_arguments(c: argparse.ArgumentParser) -> None:
    c.add_argument("--docs", type=int, default=100)
    c.add_argument("--timeout", type=float, default=60.0)


# command -> (help line, the function that adds its arguments), in help order
_COMMANDS = {
    "init": ("create a new store at --store", _no_arguments),
    "create": ("create a document, print its id", _create_arguments),
    "set": ("replace a property's value bag", _values_arguments),
    "add": ("add values to a property", _values_arguments),
    "rm-values": ("remove one occurrence of each value", _values_arguments),
    "rm-prop": ("remove a property entirely", _prop_arguments),
    "get": ("print a document snapshot", _id_argument),
    "schema": ("define and inspect schemas", _schema_arguments),
    "enforce": ("enforce a schema on a document", _enforce_arguments),
    "unenforce": ("unenforce a schema on a document", _enforce_arguments),
    "query": ("print matching document ids, sorted", _expr_argument),
    "members": ("manage collection membership", _members_arguments),
    "content": ("read or write a document's content stream", _content_arguments),
    "watch": ("stream transition deliveries as '<seq>\\t<doc-id>'", _watch_arguments),
    "demo-pipeline": ("run the three-stage worker pipeline", _demo_arguments),
    "flush": ("write all dirty documents to the store", _no_arguments),
    "stats": ("print instrumentation counters", _no_arguments),
}


KINDS = {
    "plain": DocumentKind.PLAIN,
    "collection": DocumentKind.COLLECTION,
    "content": DocumentKind.CONTENT,
}


def _parse_constraint_spec(spec: str) -> tuple[str, Constraint]:
    parts = spec.rsplit(":", 2)
    if len(parts) != 3 or not parts[0]:
        raise ValueError(f"expected PROP:TYPE:ARITY, got {spec!r}")
    prop, type_text, arity = parts
    return prop, Constraint.from_text(type_text, arity)


def _print_snapshot(repo: Repository, handle, fmt: str, out) -> None:
    snap = handle.snapshot()
    doc = str(snap.doc_id)
    if fmt == "records":
        print(_fields("DOC", doc, snap.kind.value), file=out)
        for name, seq in repo.enforcement_seqs(snap.doc_id):
            print(_fields("ENFORCE", doc, str(seq), name), file=out)
        for prop in sorted(snap.properties):
            for value in snap.properties[prop]:
                print(_fields("PROP", doc, prop, encode_value(value)), file=out)
        for member in sorted(snap.members):
            print(_fields("MEMBER", doc, str(member)), file=out)
        if snap.kind is DocumentKind.CONTENT:
            tokens = repo.content_tokens(snap.doc_id)
            print(_fields("CONTENT", doc, str(len(handle.content())), " ".join(sorted(tokens))), file=out)
        return
    print(f"id {doc}", file=out)
    print(f"kind {snap.kind.value}", file=out)
    for name in handle.enforced():
        print(f"enforced {name}", file=out)
    for prop in sorted(snap.properties):
        for value in snap.properties[prop]:
            print(f"{prop} = {render_literal(value)}", file=out)
    for member in sorted(snap.members):
        print(f"member {member}", file=out)
    if snap.kind is DocumentKind.CONTENT:
        print(f"content {len(handle.content())} bytes", file=out)


def _run(repo: Repository, args, out) -> int:
    cmd = args.command
    if cmd == "create":
        handle = repo.create_document(KINDS[args.kind])
        print(handle.doc_id, file=out)
        return 0
    if cmd in ("set", "add", "rm-values"):
        handle = repo.get_document(args.id)
        values = [parse_cli_literal(v) for v in args.values]
        if cmd == "set":
            handle.set_property(args.prop, values)
        elif cmd == "add":
            handle.add_values(args.prop, values)
        else:
            handle.remove_values(args.prop, values)
        return 0
    if cmd == "rm-prop":
        repo.get_document(args.id).remove_property(args.prop)
        return 0
    if cmd == "get":
        _print_snapshot(repo, repo.get_document(args.id), args.fmt, out)
        return 0
    if cmd == "schema":
        return _run_schema(repo, args, out)
    if cmd == "enforce":
        repo.get_document(args.id).enforce(args.schema)
        return 0
    if cmd == "unenforce":
        repo.get_document(args.id).unenforce(args.schema)
        return 0
    if cmd == "query":
        for doc_id in repo.query(args.expr).ids():
            print(doc_id, file=out)
        return 0
    if cmd == "members":
        coll = repo.get_document(args.collection)
        if args.members_command == "add":
            coll.add_member(repo.get_document(args.id))
        elif args.members_command == "rm":
            coll.remove_member(repo.get_document(args.id))
        else:
            for member in sorted(coll.members()):
                print(member, file=out)
        return 0
    if cmd == "content":
        handle = repo.get_document(args.id)
        if args.content_command == "put":
            if args.file and args.file != "-":
                try:
                    with open(args.file, "rb") as f:
                        data = f.read()
                except OSError as exc:
                    return _file_error(exc)
            else:
                data = sys.stdin.buffer.read()
            handle.put_content(data)
        else:
            data = handle.content()
            if args.file and args.file != "-":
                try:
                    with open(args.file, "wb") as f:
                        f.write(data)
                except OSError as exc:
                    return _file_error(exc)
            else:
                sys.stdout.buffer.write(data)
                sys.stdout.buffer.flush()
        return 0
    if cmd == "watch":
        return _run_watch(repo, args, out)
    if cmd == "demo-pipeline":
        report = run_pipeline_demo(repo, args.docs, timeout=args.timeout)
        print(f"documents {report.doc_count}", file=out)
        print(f"stages {' '.join(report.stage_schemas)}", file=out)
        print(f"completed {'true' if report.completed else 'false'}", file=out)
        print(f"count-monotonic {'true' if report.count_monotonic else 'false'}", file=out)
        print(f"final-count {report.final_doc_count}", file=out)
        print(f"dead-letters {report.dead_letters}", file=out)
        for stage in report.stage_schemas[1:]:
            print(f"processed {stage} {report.stage_processed.get(stage, 0)}", file=out)
        return 0 if report.completed else 1
    if cmd == "flush":
        print(f"flushed {repo.flush()}", file=out)
        return 0
    if cmd == "stats":
        for key, value in sorted(repo.stats().items()):
            print(f"{key} {value}", file=out)
        return 0
    raise AssertionError(f"unhandled command {cmd!r}")


def _file_error(exc: OSError) -> int:
    """Reports a file that content put or get names and cannot use: a domain error."""
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _run_schema(repo: Repository, args, out) -> int:
    if args.schema_command == "define":
        try:
            constraints = dict(_parse_constraint_spec(s) for s in args.constraints)
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        repo.define_schema(Schema(args.name, constraints))
        return 0
    if args.schema_command == "list":
        for name in repo.registry.names():
            print(name, file=out)
        return 0
    schema = repo.registry.get(args.name)
    if args.fmt == "records":
        print(schema_record(schema, repo.registry.slice_of_schema(schema.name)), file=out)
        return 0
    print(f"schema {schema.name}", file=out)
    for prop in sorted(schema.constraints):
        c = schema.constraints[prop]
        print(f"{prop} {c.value_type.value} {c.arity_text()}", file=out)
    return 0


def _run_watch(repo: Repository, args, out) -> int:
    sub = repo.subscribe(args.expr)
    delivered = 0
    try:
        while args.max is None or delivered < args.max:
            delivery = sub.take(timeout=0.2)
            if delivery is None:
                continue
            print(f"{delivery.seq}\t{delivery.doc_id}", file=out, flush=True)
            delivered += 1
    except KeyboardInterrupt:
        pass
    finally:
        sub.cancel()
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(_command_in(argv)).parse_args(argv)
    if not args.store:
        print("usage error: --store (or HARLAND_STORE) is required", file=sys.stderr)
        return 2
    config = CacheConfig(max_docs=args.cache_docs, flush_interval=args.flush_ms / 1000.0)
    out = sys.stdout
    try:
        if args.command == "init":
            Repository.init(args.store, config=config, id_seed=args.seed).close()
            return 0
        with Repository.open(args.store, config=config, id_seed=args.seed) as repo:
            return _run(repo, args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (NotConforming, SchemaViolation) as exc:
        for violation in exc.violations:
            print(f"VIOLATION {violation}", file=sys.stderr)
        return 1
    except HarlandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
