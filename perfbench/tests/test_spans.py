import threading

import pytest

import spans


def test_install_reaches_every_import_site_and_restore_undoes_it():
    import repro.sched.campaign as campaign
    import repro.sched.state as state
    import repro.sched.worker as worker

    original = state.load_state
    assert worker.load_state is original and campaign.load_state is original
    tracer = spans.Tracer()
    tracer.install(state, "load_state", "sched.state.replay")
    try:
        assert state.load_state is not original
        assert worker.load_state is state.load_state
        assert campaign.load_state is state.load_state
        assert tracer.installed >= 3
    finally:
        tracer.restore()
    assert state.load_state is original
    assert worker.load_state is original
    assert campaign.load_state is original
    assert tracer.installed == 0


def test_class_method_wrapper_records_spans_and_counts(tmp_path):
    from repro.sched.journal import JournalWriter, read_records

    tracer = spans.Tracer()
    original = JournalWriter.__dict__["append"]
    tracer.install(JournalWriter, "append", "sched.journal.append",
                   spans._count_append)
    try:
        with JournalWriter(str(tmp_path)) as writer:
            writer.append({"event": "requeue", "key": "k"})
    finally:
        tracer.restore()
    assert JournalWriter.__dict__["append"] is original
    # The schema header and the requeue record.
    assert tracer.calls()["sched.journal.append"] == 2
    assert tracer.counts["sched.worker.requeues"] == 1
    assert len(read_records(str(tmp_path))) == 2


def test_install_layers_is_fully_reversible():
    import repro.multicore.driver as driver
    import repro.workloads.mixes as mixes

    before = (driver.build_core, driver.cached_program, mixes.cached_program)
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        assert driver.cached_program is mixes.cached_program
        assert driver.cached_program is not before[1]
        assert driver.build_core is not before[0]
    finally:
        tracer.restore()
    assert (driver.build_core, driver.cached_program,
            mixes.cached_program) == before


def test_self_time_subtracts_same_thread_children_only():
    tracer = spans.Tracer()
    tracer.spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["child", 1.0, 4.0, 0, 1],
        ["grandchild", 2.0, 3.0, 1, 1],
        ["server", 5.0, 9.0, 0, 2],  # another thread, caused by root
    ]
    own = tracer.self_times()
    assert own["root"] == pytest.approx(7.0)
    assert own["child"] == pytest.approx(2.0)
    assert own["grandchild"] == pytest.approx(1.0)
    assert own["server"] == pytest.approx(4.0)


def test_thread_root_span_takes_the_open_main_span_as_parent():
    tracer = spans.Tracer()
    with tracer.span("request"):
        worker = threading.Thread(target=lambda: tracer.close(
            tracer.open("replay")))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    names = {s[spans.NAME]: i for i, s in enumerate(tracer.spans)}
    replay = tracer.spans[names["replay"]]
    assert replay[spans.PARENT] == names["request"]
    assert replay[spans.THREAD] != tracer.spans[names["request"]][
        spans.THREAD]
