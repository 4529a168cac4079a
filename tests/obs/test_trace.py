"""Tracer structure: nesting, thread safety, exports."""

import concurrent.futures
import json

from repro.obs import Span, Tracer


def test_spans_nest_through_the_context_manager():
    tracer = Tracer()
    with tracer.span("outer", kind="test") as outer:
        with tracer.span("inner") as inner:
            pass
    assert tracer.roots == [outer]
    assert outer.children == [inner]
    assert outer.tags == {"kind": "test"}
    assert outer.end_s >= inner.end_s >= inner.start_s >= outer.start_s


def test_sibling_spans_share_a_parent():
    tracer = Tracer()
    with tracer.span("parent"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    (parent,) = tracer.roots
    assert [child.name for child in parent.children] == ["a", "b"]


def test_thread_local_stacks_keep_nesting_correct():
    tracer = Tracer()

    def worker(i: int) -> None:
        with tracer.span(f"scan-{i}"):
            with tracer.span("stage"):
                pass

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(worker, range(8)))
    assert len(tracer.roots) == 8
    for root in tracer.roots:
        assert root.name.startswith("scan-")
        assert [c.name for c in root.children] == ["stage"]


def test_walk_and_find():
    root = Span(name="run", start_s=0.0, end_s=3.0)
    scan = Span(name="scan", start_s=0.0, end_s=2.0)
    crawl = Span(name="crawl", start_s=0.0, end_s=1.0)
    scan.children.append(crawl)
    root.children.append(scan)
    assert [s.name for s in root.walk()] == ["run", "scan", "crawl"]
    assert root.find("crawl") is crawl
    assert root.find("absent") is None


def test_finish_is_idempotent():
    span = Span(name="x", start_s=1.0)
    span.finish()
    first_end = span.end_s
    span.finish()
    assert span.end_s == first_end


def test_to_dict_rebases_onto_origin():
    tracer = Tracer()
    with tracer.span("only"):
        pass
    exported = tracer.to_dict()
    assert exported["format"] == 1
    (span,) = exported["spans"]
    assert span["name"] == "only"
    assert span["start_s"] >= 0.0
    assert span["duration_s"] >= 0.0
    assert span["children"] == []
    json.dumps(exported)  # must be JSON-serializable


def test_chrome_export_is_one_complete_event_per_span():
    tracer = Tracer()
    with tracer.span("outer", label="x"):
        with tracer.span("inner"):
            pass
    chrome = tracer.to_chrome()
    assert chrome["displayTimeUnit"] == "ms"
    events = chrome["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
    assert events[0]["args"] == {"label": "x"}
    json.dumps(chrome)
