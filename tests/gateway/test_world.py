"""The world manifest: what a reused ``--journal-dir`` recovers from."""

from __future__ import annotations

from repro.gateway import WorldManifest


class TestWorldManifest:
    def test_from_dict_accepts_the_retired_workers_field(self):
        # Manifests written while the runtime had a threads-per-shard
        # knob carry "workers": 1; they must still load.
        old = {"seed": 5, "users": 20, "shards": 2, "backend": "thread",
               "queue_capacity": 64, "workers": 1, "deadline_ms": None}
        manifest = WorldManifest.from_dict(old)
        assert manifest == WorldManifest(seed=5, users=20, shards=2,
                                         queue_capacity=64)
        assert "workers" not in manifest.to_dict()
