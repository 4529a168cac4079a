"""The event layer: thread-local collection scopes."""

import threading

from repro.obs.events import collecting, emit


def test_emit_without_scope_is_a_no_op():
    emit("memo.build", table="x")  # must not raise or leak anywhere
    with collecting() as sink:
        pass
    assert sink == []


def test_collecting_captures_emits_on_this_thread():
    with collecting() as sink:
        emit("memo.build", table="flow")
        emit("memo.hit", table="flow")
    assert [e.kind for e in sink] == ["memo.build", "memo.hit"]
    assert sink[0].payload == {"table": "flow"}
    # The scope is closed: further emits go nowhere.
    emit("memo.hit", table="flow")
    assert len(sink) == 2


def test_scopes_nest_and_restore():
    with collecting() as outer:
        emit("outer.before")
        with collecting() as inner:
            emit("inner.only")
        emit("outer.after")
    assert [e.kind for e in inner] == ["inner.only"]
    assert [e.kind for e in outer] == ["outer.before", "outer.after"]


def test_scopes_are_per_thread():
    seen_in_worker = []

    def worker():
        emit("worker.unscoped")  # the main thread's scope must not see this
        with collecting() as mine:
            emit("worker.scoped")
        seen_in_worker.extend(mine)

    with collecting() as main_sink:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        emit("main.scoped")
    assert [e.kind for e in main_sink] == ["main.scoped"]
    assert [e.kind for e in seen_in_worker] == ["worker.scoped"]
