"""A disaggregated stream whose decode shard dies is re-planned.

``KvTransferScheduler.on_shard_down`` is the one path that re-plans a KV
stream: staged destination pages go back to the dead shard's free pool,
clean staged source pages re-queue for a fresh destination, and the
observers hear ``note_replanned``.  The disaggregation experiment's mixed
fleet, cut to 4 summarizers and 8 chats, with shard 2 crashed at 0.036 s,
catches exactly one stream mid-flight (a chat's first page staged on the
crashed decode shard); crashes of shards 1–3 at 0.05 / 0.1 / 0.2 / 0.3 s
catch none, so the window is narrow and this scenario is pinned.
"""

from dataclasses import replace

from repro.bench.experiments import disaggregation
from repro.bench.mixed_fleet import run_mixed_fleet
from repro.core.inferlet import LifecycleObserver
from repro.core.transfer import KvTransferScheduler

CRASHED_SHARD = 2
CRASH_AT_S = 0.036


class _Replans(LifecycleObserver):
    def __init__(self) -> None:
        self.notes = []

    def note_replanned(self, owner, dead_index, requeued_pages):
        self.notes.append((owner, dead_index, requeued_pages))


def test_a_crashed_decode_shard_replans_its_stream(monkeypatch):
    seen = []
    replans = _Replans()
    on_shard_down = KvTransferScheduler.on_shard_down

    def recording(self, index):
        def streams():
            return {
                owner: (stream.dst_index, dict(stream.staged), list(stream.queued))
                for owner, stream in self._streams.items()
            }

        dead = self.shards[index].memory.kv_pages
        before, free_before = streams(), dead.num_free
        self.observers = (*self.observers, replans)
        try:
            on_shard_down(self, index)
        finally:
            self.observers = self.observers[:-1]
        seen.append((index, before, streams(), free_before, dead.num_free, dead))

    monkeypatch.setattr(KvTransferScheduler, "on_shard_down", recording)
    fleet = replace(disaggregation.FLEET, n_summarizers=4, n_chats=8)
    row, server = run_mixed_fleet(
        fleet,
        **disaggregation.SETUP,
        **disaggregation.ARMS["disaggregated"],
        fault_plan=(("shard_crash", CRASH_AT_S, CRASHED_SHARD),),
    )

    assert server.metrics.disagg_replans == 1
    assert [index for index, *_ in seen] == [CRASHED_SHARD]
    _, before, after, free_before, free_after, dead = seen[0]
    replanned = [owner for owner, (dst, _, _) in before.items() if dst == CRASHED_SHARD]
    assert len(replanned) == 1
    owner = replanned[0]
    dst, staged, queued = before[owner]
    assert staged and all(entry.clean for entry in staged.values())

    # Staged destination pages unstage: the dead shard's pool gets them back.
    dst_pids = [entry.dst_pid for entry in staged.values()]
    assert free_after == free_before + len(dst_pids)
    assert not any(dead._pool.is_allocated(pid) for pid in dst_pids)
    # Clean source pages re-queue, ahead of what was queued; the stream
    # chooses a fresh destination at its next flush.
    assert after[owner] == (
        None,
        {},
        sorted(staged) + [pid for pid in queued if pid not in staged],
    )
    assert replans.notes == [(owner, CRASHED_SHARD, len(staged))]
    # Streams aimed elsewhere are left alone.
    for other, state in before.items():
        if other != owner:
            assert after[other] == state

    # The fleet still finishes, the re-planned stream included.
    assert row["finished"] == fleet.n_summarizers + fleet.n_chats
