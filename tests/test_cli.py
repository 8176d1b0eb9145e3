"""End-to-end tests for the command-line interface and its exit codes."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vigor.cli as cli
from vigor import errors
from vigor.cli import main
from vigor.errors import CheckpointError
from vigor.model import GroundingModel, ModelConfig
from vigor.records import read_records
from vigor.synthgen import default_vocab, sample_scene
from vigor.tensor import GradCheckReport
from vigor.trainer import TrainState, load_checkpoint, model_from_checkpoint, save_checkpoint

from conftest import CORRUPT_LENGTHS, PARSE_CASES, rewrite_checkpoint_header


def synth(tmp_path, name="data.jsonl", scenes=4, seed=0, extra=()):
    path = tmp_path / name
    code = main(
        [
            "synth",
            "--scenes",
            str(scenes),
            "--proposals",
            "4:6",
            "--order-len",
            "2",
            "--relation",
            "farthest",
            "--points",
            "6",
            "--vocab-size",
            "6",
            "--seed",
            str(seed),
            "--out",
            str(path),
            *extra,
        ]
    )
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_records(tmp_path, capsys):
    path = synth(tmp_path, scenes=3)
    assert len(read_records(path)) == 3
    assert "wrote 3 records" in capsys.readouterr().out


def test_synth_zero_scenes_writes_empty_file(tmp_path):
    path = synth(tmp_path, scenes=0)
    assert path.read_text() == ""
    assert read_records(path) == []


def test_synth_is_deterministic(tmp_path):
    a = synth(tmp_path, name="a.jsonl", seed=5)
    b = synth(tmp_path, name="b.jsonl", seed=5)
    c = synth(tmp_path, name="c.jsonl", seed=6)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_synth_output_is_pinned(tmp_path):
    """The bytes `generate_dataset` yields through `vigor synth`: a change to
    the sample stream or to the record format shows here."""
    path = tmp_path / "pinned.jsonl"
    argv = ["synth", "--scenes", "20", "--proposals", "5:8", "--order-len", "3", "--seed", "7"]
    assert main([*argv, "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "ba4f13e6d42238697fd1949788a3370b3590a5af5401e6ae5b5a2a52a8aadb14"


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--points", "-1", "points_per_proposal"),
        ("--points", "0", "points_per_proposal"),
        # once a numpy "maximum allowed dimension exceeded" traceback
        ("--points", str(2**62), "points_per_proposal"),
        ("--vocab-size", "0", "class_vocab_size"),
        ("--scenes", "-3", "sample count"),
        ("--seed", "-1", "seed"),
    ],
)
def test_synth_out_of_range_size_is_validation_error(tmp_path, capsys, flag, value, named):
    out = tmp_path / "data.jsonl"
    # a repeated flag takes its last value
    assert main(["synth", "--scenes", "2", "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--order-len", "9", "--vocab-size", "2"], ["--proposals", "1:1"]],
    ids=["vocab", "proposals"],
)
def test_synth_order_no_scene_can_hold_is_validation_error(tmp_path, capsys, flags):
    """Refused when the config is built, before any scene is drawn."""
    out = tmp_path / "data.jsonl"
    assert main(["synth", "--scenes", "2", "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "order_len" in err and "Traceback" not in err
    assert not out.exists()


PACKAGE_ERRORS = sorted(
    (e for e in vars(errors).values() if isinstance(e, type) and issubclass(e, errors.VigorError)),
    key=lambda e: e.__name__,
)


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda e: e.__name__)
def test_every_package_error_has_an_exit_code(monkeypatch, capsys, error):
    """An endpoint failure exits 3; every other package error exits 1."""

    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_gradcheck", fail)
    assert main(["gradcheck"]) == (3 if error is errors.EndpointError else 1)
    assert capsys.readouterr().err == "error: boom\n"


def test_synth_bad_proposals_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["synth", "--scenes", "1", "--proposals", "nope", "--out", "x"])
    assert err.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# verify


def test_synth_then_verify_agrees(tmp_path, capsys):
    path = synth(tmp_path, scenes=5)
    assert main(["verify", "--data", str(path)]) == 0
    assert "verified 5 records" in capsys.readouterr().out


def test_verify_catches_wrong_target(tmp_path, capsys):
    path = synth(tmp_path, scenes=2)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    bad = records[0]["target_id"]
    ids = [p["id"] for p in records[0]["proposals"]]
    records[0]["target_id"] = next(i for i in ids if i != bad)
    records[0]["anchor_ids"][-1] = records[0]["target_id"]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert main(["verify", "--data", str(path)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_verify_reports_an_unreadable_description_and_goes_on(tmp_path, capsys):
    path = synth(tmp_path, scenes=2)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[1]["description"] = "nothing here names a class"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert main(["verify", "--data", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "verify FAILED on 1 of 2 records" in out
    assert err.startswith("record 1: ") and "no known class name" in err
    assert "record 0" not in err and "error:" not in err


def test_verify_missing_file_is_io_error(tmp_path, capsys):
    assert main(["verify", "--data", str(tmp_path / "absent.jsonl")]) == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / eval


def train_flags(tmp_path, ckpt, data=None, extra=()):
    flags = [
        "train",
        "--warmup-steps",
        "2",
        "--order-len",
        "2",
        "--d",
        "8",
        "--batch-size",
        "2",
        "--seed",
        "3",
        "--out",
        str(ckpt),
        *extra,
    ]
    if data is not None:
        flags += ["--main-data", str(data), "--main-steps", "2"]
    return flags


def test_train_eval_pipeline(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "n_heads": 2,
                "points_per_proposal": 6,
                "proposals_min": 4,
                "proposals_max": 6,
                "class_vocab_size": 6,
            }
        )
    )
    data = synth(tmp_path, scenes=4)
    ckpt = tmp_path / "model.ckpt"
    code = main(train_flags(tmp_path, ckpt, data=data, extra=["--config", str(config)]))
    out = capsys.readouterr().out
    assert code == 0
    assert "warm-up: 2 steps" in out
    assert "main: 2 steps" in out
    loaded = load_checkpoint(ckpt)
    assert loaded.cfg.d == 8
    assert (loaded.warmup_done, loaded.main_done) == (2, 2)

    report_path = tmp_path / "report.json"
    code = main(
        [
            "eval",
            "--data",
            str(data),
            "--ckpt",
            str(ckpt),
            "--breakdown",
            "order_length,distractors",
            "--report",
            str(report_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "accuracy" in out
    blob = json.loads(report_path.read_text())
    assert 0.0 <= blob["overall"] <= 1.0
    assert blob["count"] == 4
    assert any(k.startswith("order_length:") for k in blob["subsets"])


def test_train_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"learning_rate": 1.0}))
    ckpt = tmp_path / "model.ckpt"
    code = main(train_flags(tmp_path, ckpt, extra=["--config", str(config)]))
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"d": "abc"}', "d"),
        ('{"points_per_proposal": null}', "points_per_proposal"),
        ('{"batch_size": 2.7}', "batch_size"),
        ('{"lr": true}', "lr"),
        ('{"w_ref": -1}', "w_ref"),
        ('{"w_ref": NaN}', "w_ref"),
    ],
)
def test_train_config_rejects_mistyped_values(tmp_path, capsys, text, key):
    config = tmp_path / "config.json"
    config.write_text(text)
    ckpt = tmp_path / "model.ckpt"
    # no flags that share a key with the file, which they would override
    code = main(["train", "--config", str(config), "--out", str(ckpt)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and key in err
    assert not ckpt.exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"room_extent": -3}', "room_extent"),
        ('{"room_extent": 0}', "room_extent"),
        ('{"room_extent": NaN}', "room_extent"),
        ('{"min_separation": NaN}', "min_separation"),
        ('{"d": 4611686018427387904}', "d"),
        ('{"proposals_max": 4611686018427387904}', "proposals_max"),
    ],
)
def test_train_config_rejects_out_of_range_geometry(tmp_path, capsys, text, key):
    config = tmp_path / "config.json"
    config.write_text(text)
    ckpt = tmp_path / "model.ckpt"
    code = main(["train", "--config", str(config), "--warmup-steps", "1", "--out", str(ckpt)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and key in err
    assert not ckpt.exists()


def test_config_keys_are_the_dataclass_fields():
    assert cli.CONFIG_KEYS == {
        "seed", "warmup_steps", "main_steps", "batch_size", "lr", "label_noise",
        "eval_every", "w_ref", "w_mask", "w_text", "w_crd", "d", "n_heads",
        "order_len", "points_per_proposal", "proposals_min", "proposals_max",
        "room_extent", "class_vocab_size", "relation", "min_separation", "style",
    }


# ---------------------------------------------------------------------------
# property: any mutation of a valid --config file loads or is refused

# Every key a config may set, each at a value `vigor train` accepts.
VALID_CONFIG = {
    "seed": 3, "warmup_steps": 2, "main_steps": 1, "batch_size": 2, "lr": 0.001,
    "label_noise": 0.1, "eval_every": 0, "w_ref": 1.0, "w_mask": 0.5, "w_text": 0.5,
    "w_crd": 0.5, "d": 8, "n_heads": 2, "order_len": 2, "points_per_proposal": 6,
    "proposals_min": 4, "proposals_max": 6, "room_extent": 6.0, "class_vocab_size": 6,
    "relation": "farthest", "min_separation": 0.5, "style": "template",
}
MISSING = object()
# JSON values a mutated file might hold: mistyped, nested, null, huge or
# tiny numbers, non-finite, another key's valid value, or the key left out.
CONFIG_VALUES = st.sampled_from(
    ["8", "", "natural", 1.5, 2.0, True, False, None, [], [8], [[[8]]], {"d": 8}, 0, -1, 1, 3,
     10**400, 2**62, -(2**62), 2**1023, 1e200, -1e200, 5e-324, float("nan"), float("inf"),
     float("-inf"), MISSING]
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    edits=st.lists(st.tuples(st.sampled_from(sorted(VALID_CONFIG)), CONFIG_VALUES), max_size=3),
    nest=st.sampled_from([None, None, "array", "object", "value"]),
    cut=st.none() | st.floats(0.0, 1.0),
)
@example(edits=[], nest=None, cut=None)
def test_train_config_loads_or_refuses(config_path, edits, nest, cut):
    """Whatever a `vigor train --config` file holds, reading it and building
    the configs and vocabulary a run starts from either work or raise the
    package's own error."""
    blob = dict(VALID_CONFIG)
    for key, value in edits:
        if value is MISSING:
            blob.pop(key, None)
        else:
            blob[key] = value
    if nest == "array":
        blob = [blob]
    elif nest == "object":
        blob = {"config": blob}
    elif nest == "value":
        blob["d"] = {"d": blob.get("d")}
    text = json.dumps(blob)
    config_path.write_text(text if cut is None else text[: int(cut * len(text))])
    args = cli.build_parser().parse_args(["train", "--config", str(config_path), "--out", "-"])
    try:
        gen_cfg, train_cfg, model_cfg = cli._train_configs(args)
        model = GroundingModel(model_cfg, default_vocab(gen_cfg.class_vocab_size))
        scene = sample_scene(gen_cfg, np.random.default_rng(0))
    except errors.VigorError:
        assert blob != VALID_CONFIG or cut is not None  # the valid file loads
        return
    assert model_cfg.b == gen_cfg.order_len and train_cfg.weights.w_ref >= 0.0
    assert model.params.vector.size > 0
    assert gen_cfg.proposals_min <= len(scene) <= gen_cfg.proposals_max


def test_train_without_config_builds_the_default_model(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--out", str(ckpt)]) == 0
    cfg = load_checkpoint(ckpt).cfg
    assert (cfg.d, cfg.b, cfg.n_heads, cfg.points_per_proposal) == (32, 2, 4, 16)


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_rejects_nonfinite_learning_rate(tmp_path, capsys, lr):
    ckpt = tmp_path / "model.ckpt"
    code = main(train_flags(tmp_path, ckpt, extra=["--lr", lr]))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "learning rate" in err
    assert not ckpt.exists()


def test_eval_unknown_breakdown_family(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"n_heads": 2, "points_per_proposal": 6, "class_vocab_size": 6})
    )
    data = synth(tmp_path, scenes=1)
    ckpt = tmp_path / "model.ckpt"
    assert main(train_flags(tmp_path, ckpt, extra=["--config", str(config)])) == 0
    capsys.readouterr()
    code = main(["eval", "--data", str(data), "--ckpt", str(ckpt), "--breakdown", "bogus"])
    assert code == 1
    assert "unknown breakdown families" in capsys.readouterr().err


def test_eval_missing_checkpoint_is_io_error(tmp_path):
    data = synth(tmp_path, scenes=1)
    code = main(["eval", "--data", str(data), "--ckpt", str(tmp_path / "none.ckpt")])
    assert code == 3


def eval_setup(tmp_path, scenes):
    """A synthesized dataset plus an untrained d=8 checkpoint that fits it."""
    data = synth(tmp_path, scenes=scenes)
    ckpt = tmp_path / "model.ckpt"
    model = GroundingModel(ModelConfig(d=8, b=2, n_heads=2, points_per_proposal=6), default_vocab(6))
    save_checkpoint(ckpt, model, TrainState.fresh(0))
    return data, ckpt


def edit_header(mutate):
    return lambda path: rewrite_checkpoint_header(path, mutate)


MALFORMED_CHECKPOINTS = {
    "extra-model-key": edit_header(lambda h: h["model"].update(bogus=1)),
    "config-mismatch": edit_header(lambda h: h["model"].update(b=3)),
    "negative-step": edit_header(lambda h: h.update(adam_t=-1)),
    "negative-warmup-done": edit_header(lambda h: h.update(warmup_done=-3)),
    "fractional-warmup-done": edit_header(lambda h: h.update(warmup_done=2.7)),
    "string-main-done": edit_header(lambda h: h.update(main_done="3")),
    "float-blocks": edit_header(lambda h: h["model"].update(b=2.0)),
    "float-width": edit_header(lambda h: h["model"].update(d=8.0)),
    "bool-heads": edit_header(lambda h: h["model"].update(n_heads=True)),
    "width-past-float-range": edit_header(lambda h: h["model"].update(d=10**400)),
    "trailing-byte": lambda path: path.write_bytes(path.read_bytes() + b"\0"),
    **CORRUPT_LENGTHS,
}


@pytest.mark.parametrize(
    "corrupt", MALFORMED_CHECKPOINTS.values(), ids=MALFORMED_CHECKPOINTS.keys()
)
def test_eval_malformed_checkpoint_header_is_validation_error(tmp_path, capsys, corrupt):
    data, ckpt = eval_setup(tmp_path, scenes=1)
    corrupt(ckpt)
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--ckpt", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda h: h.update(class_names=[1, 2, 3, 4, 5, 6]),
        lambda h: h["word_tokens"].reverse(),
    ],
    ids=["integer-class-names", "unk-not-first"],
)
def test_eval_malformed_checkpoint_vocabulary_is_checkpoint_error(tmp_path, capsys, mutate):
    data, ckpt = eval_setup(tmp_path, scenes=1)
    rewrite_checkpoint_header(ckpt, mutate)
    with pytest.raises(CheckpointError):
        load_checkpoint(ckpt)
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--ckpt", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_eval_refuses_a_checkpoint_with_a_nan_parameter(tmp_path, capsys):
    # A NaN in a head is not caught by the blocks' finiteness scan: argmax
    # would pick proposal 0 for every item and eval would exit 0.
    data, ckpt = eval_setup(tmp_path, scenes=2)
    model, state = model_from_checkpoint(load_checkpoint(ckpt))
    model.params["head.score.2.b"][0, 0] = float("nan")
    save_checkpoint(ckpt, model, state)
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--ckpt", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "head.score.2.b" in err and "Traceback" not in err


def write_transcript(tmp_path, data, unreadable=()):
    """A canned model that answers every description with its target alone;
    for the items in `unreadable` its second reply has no order line."""
    transcript = tmp_path / "transcript.jsonl"
    with open(transcript, "w", encoding="utf-8") as fh:
        for i, record in enumerate(read_records(data)):
            summary = f"summary number {i} of the scene"
            order = f"referential order: {record.order[-1]}"
            if i in unreadable:
                order = "no order here"
            for substring, reply in (
                (record.description, f"summarized description: {summary}\ntarget object: x"),
                (summary, f"{order}\nanchor objects: none"),
            ):
                fh.write(json.dumps({"request_substring": substring, "response": reply}) + "\n")
    return transcript


@pytest.mark.parametrize("command", ["verify", "train", "parse", "eval"])
def test_non_utf8_input_is_validation_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[]\n")
    ckpt = eval_setup(tmp_path, scenes=1)[1] if command == "eval" else None
    args = {
        "verify": ["verify", "--data", str(bad)],
        "train": ["train", "--config", str(bad), "--out", str(tmp_path / "m.ckpt")],
        "parse": ["parse", "--desc", "chair", "--vocab", str(bad)],
        "eval": ["eval", "--data", str(bad), "--ckpt", str(ckpt)],
    }[command]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and "Traceback" not in err


def test_eval_nonfinite_colour_is_validation_error(tmp_path, capsys):
    data, ckpt = eval_setup(tmp_path, scenes=2)
    blobs = [json.loads(line) for line in data.read_text().splitlines()]
    blobs[1]["proposals"][0]["points"][0][4] = float("nan")
    data.write_text("".join(json.dumps(b) + "\n" for b in blobs))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--ckpt", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:2: proposal ") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["center", "points"])
def test_eval_number_past_float_range_is_validation_error(tmp_path, capsys, field):
    data, ckpt = eval_setup(tmp_path, scenes=2)
    blobs = [json.loads(line) for line in data.read_text().splitlines()]
    prop = blobs[1]["proposals"][0]
    row = prop["center"] if field == "center" else prop["points"][0]
    row[0] = 10**400
    data.write_text("".join(json.dumps(b) + "\n" for b in blobs))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--ckpt", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:2: malformed record") and "Traceback" not in err


def test_eval_counts_parse_failures(tmp_path, capsys):
    data, ckpt = eval_setup(tmp_path, scenes=3)
    transcript = write_transcript(tmp_path, data, unreadable={1})
    report = tmp_path / "report.json"
    flags = ["--parser", "llm", "--transcript", str(transcript), "--report", str(report)]
    assert main(["eval", "--data", str(data), "--ckpt", str(ckpt), *flags]) == 0
    assert "parse failures: 1" in capsys.readouterr().out
    blob = json.loads(report.read_text())
    assert blob["count"] == 3 and blob["parse_failures"] == 1
    assert blob["subsets"]["order_length:unparsed"] == {"accuracy": 0.0, "count": 1}
    assert blob["subsets"]["order_length:1"]["count"] == 2


def test_eval_scores_parsed_orders(tmp_path, capsys):
    data, ckpt = eval_setup(tmp_path, scenes=3)
    transcript = write_transcript(tmp_path, data)

    reports = {}
    for name, flags in (
        ("stored", []),
        ("rule", ["--parser", "rule"]),
        ("llm", ["--parser", "llm", "--transcript", str(transcript)]),
    ):
        report = tmp_path / f"{name}.json"
        args = ["eval", "--data", str(data), "--ckpt", str(ckpt), "--report", str(report)]
        assert main(args + flags) == 0
        reports[name] = json.loads(report.read_text())
        assert reports[name]["config"]["orders"] == name
    # the rule parser recovers the stored two-name orders; the transcript's
    # one-name orders land every item in the length-1 bucket
    assert reports["rule"]["subsets"] == reports["stored"]["subsets"]
    assert reports["stored"]["subsets"]["order_length:2&3"]["count"] == 3
    assert reports["llm"]["subsets"]["order_length:1"]["count"] == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# parse


def test_parse_rule_prints_arrow_joined_order(tmp_path, capsys):
    desc = (
        "There is a door in the room, finally you can see the table "
        "farthest to that door."
    )
    assert main(["parse", "--desc", desc]) == 0
    assert capsys.readouterr().out.strip() == "door→table"


def test_parse_rule_custom_vocab(tmp_path, capsys):
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps(["sofa", "floor lamp"]))
    assert main(["parse", "--desc", "the floor lamp by the sofa", "--vocab", str(vocab)]) == 0
    assert capsys.readouterr().out.strip() == "floor lamp→sofa"


def test_parse_rule_inline_vocab(capsys):
    args = ["parse", "--desc", "the floor lamp by the sofa", "--vocab"]
    assert main(args + ['["sofa", "floor lamp"]']) == 0
    assert capsys.readouterr().out.strip() == "floor lamp→sofa"


def test_parse_malformed_inline_vocab_fails_validation(capsys):
    args = ["parse", "--desc", "the sofa", "--vocab", '["sofa",']
    assert main(args) == 1
    assert "bad vocab JSON" in capsys.readouterr().err


def test_parse_no_known_names_fails_validation(capsys):
    assert main(["parse", "--desc", "nothing recognizable here"]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_llm_with_transcript(a7_transcript_path, capsys):
    case = PARSE_CASES[0]
    code = main(
        [
            "parse",
            "--desc",
            case["description"],
            "--parser",
            "llm",
            "--transcript",
            str(a7_transcript_path),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "bed→pillow"


@pytest.mark.parametrize(
    "line",
    [
        b"not json",
        b"5",
        b'{"request_substring": 3, "response": "summarized description: x"}',
        b'{"request_substring": "the chair", "response": null}',
        b'{"request_substring": "the chair", "response": "\xff"}',
    ],
)
def test_parse_llm_malformed_transcript_line_is_validation_error(tmp_path, capsys, line):
    good = {"request_substring": "unrelated", "response": "target object: chair"}
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_bytes(json.dumps(good).encode() + b"\n" + line + b"\n")
    args = ["parse", "--desc", "the chair", "--parser", "llm", "--transcript", str(transcript)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {transcript}:2: ") and "Traceback" not in err


def test_parse_llm_without_endpoint_is_endpoint_error(monkeypatch, capsys):
    monkeypatch.delenv("VIGOR_LLM_ENDPOINT", raising=False)
    assert main(["parse", "--desc", "anything", "--parser", "llm"]) == 3
    assert "VIGOR_LLM_ENDPOINT" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck (wiring only; the real audit runs in the acceptance suite)


def test_gradcheck_exit_codes(monkeypatch, capsys):
    good = GradCheckReport(max_rel_err=2e-5, worst_param="w", checked=10)
    monkeypatch.setattr(cli, "full_model_grad_check", lambda seed: good)
    assert main(["gradcheck", "--seed", "1"]) == 0
    assert "max rel err" in capsys.readouterr().out
    bad = GradCheckReport(max_rel_err=0.5, worst_param="w", checked=10)
    monkeypatch.setattr(cli, "full_model_grad_check", lambda seed: bad)
    assert main(["gradcheck"]) == 1
