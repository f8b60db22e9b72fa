"""Wire-protocol codec: decode validation and byte-exact encodings."""

import json

import pytest

from repro.errors import ServeError
from repro.memsim.config import DirectoryState, paper_config
from repro.memsim.spec import MediaKind, Op, Pattern, StreamSpec
from repro.serve import protocol
from repro.sweep.service import EvaluationService


def decode(frame):
    return protocol.decode_request(frame)


class TestDecode:
    def test_ping(self):
        request = decode({"kind": "ping", "id": 7})
        assert request.kind == "ping"
        assert request.id == 7

    def test_evaluate_defaults(self):
        request = decode(
            {"kind": "evaluate", "streams": [{"op": "read", "threads": 4}]}
        )
        assert request.kind == "evaluate"
        assert request.streams == (StreamSpec(op=Op.READ, threads=4),)
        assert request.config is paper_config()
        assert request.directory == DirectoryState.cold()
        assert request.deadline_seconds is None
        assert not request.include_counters

    def test_evaluate_full_frame(self):
        request = decode({
            "kind": "evaluate",
            "id": "q1",
            "streams": [{
                "op": "write", "threads": 8, "access_size": 256,
                "media": "dram", "pattern": "random", "layout": "grouped",
                "pinning": "none", "issuing_socket": 1, "target_socket": 0,
                "dax_mode": "fsdax", "prefaulted": True,
            }],
            "warm_pairs": [[0, 1], [1, 0]],
            "deadline_seconds": 2.5,
            "counters": True,
            "prefetcher": False,
        })
        spec = request.streams[0]
        assert spec.op is Op.WRITE
        assert spec.media is MediaKind.DRAM
        assert spec.pattern is Pattern.RANDOM
        assert request.directory.warm_pairs == frozenset({(0, 1), (1, 0)})
        assert request.deadline_seconds == 2.5
        assert request.include_counters
        assert not request.config.prefetcher_enabled
        # The ablation config is identity-cached per toggle pair.
        again = decode({
            "kind": "evaluate", "prefetcher": False,
            "streams": [{"op": "read", "threads": 1}],
        })
        assert again.config is request.config

    def test_sweep_points(self):
        request = decode({
            "kind": "sweep",
            "points": [
                [{"op": "read", "threads": 2}],
                [{"op": "read", "threads": 4}, {"op": "write", "threads": 2}],
            ],
        })
        assert request.kind == "sweep"
        assert len(request.points) == 2
        assert len(request.points[1]) == 2

    def test_advise(self):
        request = decode({
            "kind": "advise",
            "intent": {"profile": "scan_heavy", "threads_per_socket": 18},
        })
        assert request.intent.threads_per_socket == 18

    @pytest.mark.parametrize("frame,fragment", [
        ({"kind": "teleport"}, "unknown kind"),
        ({"kind": "evaluate"}, "streams"),
        ({"kind": "evaluate", "streams": []}, "non-empty"),
        ({"kind": "evaluate", "streams": [{"op": "levitate", "threads": 1}]},
         "bad 'op'"),
        ({"kind": "evaluate", "streams": [{"op": "read", "threads": 0}]},
         "invalid stream"),
        ({"kind": "evaluate", "streams": [{"op": "read", "threads": 1,
                                           "warp": 9}]}, "unknown stream field"),
        ({"kind": "evaluate", "streams": [{"op": "read", "threads": 1}],
          "warm_pairs": [[0]]}, "warm pair"),
        ({"kind": "evaluate", "streams": [{"op": "read", "threads": 1}],
          "deadline_seconds": -1}, "deadline_seconds"),
        ({"kind": "sweep", "points": []}, "points"),
        ({"kind": "advise", "intent": {"profile": "chaotic"}}, "bad profile"),
        ({"kind": "advise", "intent": {"profile": "mixed", "sockets": 0}},
         "invalid intent"),
    ])
    def test_bad_frames_raise_bad_request(self, frame, fragment):
        with pytest.raises(ServeError) as excinfo:
            decode(frame)
        assert excinfo.value.code == "bad_request"
        assert fragment in str(excinfo.value)

    def test_stream_wire_round_trip(self):
        spec = StreamSpec(op=Op.WRITE, threads=6, access_size=512,
                          pattern=Pattern.RANDOM)
        assert protocol.decode_stream(protocol.encode_stream(spec)) == spec


class TestEncode:
    def test_point_encoding_matches_view_encoding_exactly(self):
        service = EvaluationService(disk_cache=None)
        config = paper_config()
        points = [
            (StreamSpec(op=Op.READ, threads=4),),
            (StreamSpec(op=Op.READ, threads=8, issuing_socket=0, target_socket=1),),
            (StreamSpec(op=Op.READ, threads=2), StreamSpec(op=Op.WRITE, threads=2)),
        ]
        columns = service.evaluate_grid_columns(config, points)
        for include in (False, True):
            for row in range(len(points)):
                columnar = protocol.encode_point(
                    columns, row, include_counters=include
                )
                via_view = protocol.encode_result(
                    columns.view(row), include_counters=include
                )
                assert protocol.dump_line(columnar) == protocol.dump_line(via_view)

    def test_result_payload_shape(self):
        service = EvaluationService(disk_cache=None)
        result = service.evaluate(paper_config(), (StreamSpec(op=Op.READ, threads=4),))
        payload = protocol.encode_result(result, include_counters=True)
        assert payload["total_gbps"] == result.total_gbps
        assert payload["streams"][0]["gbps"] == result.streams[0].gbps
        assert payload["counters"]["app_bytes_read"] > 0
        assert payload["warm_pairs"] == []

    def test_error_response_carries_code_and_retry(self):
        shed = ServeError("shed", "queue full", retry_after_seconds=0.004)
        response = protocol.error_response(3, shed)
        assert response == {
            "id": 3,
            "ok": False,
            "error": {"code": "shed", "message": "queue full",
                      "retry_after_seconds": 0.004},
        }
        plain = protocol.error_response(None, ValueError("boom"))
        assert plain["error"]["code"] == "evaluation"
        assert "retry_after_seconds" not in plain["error"]

    def test_dump_line_is_compact_newline_terminated(self):
        line = protocol.dump_line({"id": 1, "ok": True})
        assert line.endswith(b"\n")
        assert b" " not in line
        assert json.loads(line) == {"id": 1, "ok": True}
