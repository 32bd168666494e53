"""Event-level encoder: featurization, NULL/MASK substitution, masking, gradients.

Every event row comes from ``featurize_events`` -> ``build_batch`` -> ``encode_batch``.
"""

import math
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import BED, STOVE, WEARABLE, toy_config, toy_events
from domusfm.autodiff import Tensor, grad_check, precision, tensor_sum
from domusfm.embeddings import fallback_embedding
from domusfm.event_encoder import (
    MASK_ID,
    NULL_ID,
    ModelConfig,
    N_SLOTS,
    build_batch,
    cyclical_features,
    cyclical_table,
    encode_batch,
    featurize_events,
    init_event_encoder,
)
from domusfm.events import Event, Sensor
from domusfm.segmentation import Window

SEEDS = (0, 1, 2)
T0 = 1_700_000_000


def make_params(config, seed=0):
    return init_event_encoder(config, config.d, np.random.default_rng(seed))


def batch_of(events, table, config, masks=None):
    """(1, N) batch of ``events`` as one window over a stream of just them."""
    feats = featurize_events(events, table, config)
    if masks is not None:
        masks = np.asarray(masks, dtype=np.float64).reshape(1, len(events), N_SLOTS)
    return build_batch([Window("events", 0, len(events))], {"events": feats}, masks)


def encode(events, table, params, config, masks=None):
    """h_e rows (N, d) of ``events`` encoded as one window."""
    batch = batch_of(events, table, config, masks)
    return encode_batch(batch, params, config).data[0]


def utc_fields(timestamp):
    """(weekday, hour, second in hour) of a UTC timestamp, by ``datetime``."""
    dt = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return dt.weekday(), dt.hour, dt.minute * 60 + dt.second


def slot_masks(*slots):
    masks = np.zeros(N_SLOTS)
    masks[list(slots)] = 1.0
    return masks


class TestModelConfig:
    def test_validations(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(d=10, heads=4)
        with pytest.raises(ValueError, match="3600"):
            ModelConfig(seconds_buckets=7)
        with pytest.raises(ValueError):
            ModelConfig(harmonics=0)
        for field in ("d", "heads", "seconds_buckets"):
            with pytest.raises(ValueError, match=f"{field} must be >= 1"):
                ModelConfig(**{field: 0})

    def test_full_scale_defaults(self):
        cfg = ModelConfig.full_scale()
        assert (cfg.d, cfg.heads, cfg.layers) == (384, 12, 12)


class TestCyclicalFeatures:
    def test_hour_zero_single_harmonic(self):
        np.testing.assert_allclose(cyclical_features(0, 24.0, 1), [0.0, 1.0], atol=1e-15)

    def test_hour_six_single_harmonic(self):
        np.testing.assert_allclose(cyclical_features(6, 24.0, 1), [1.0, 0.0], atol=1e-12)

    def test_period_shift_is_bitwise(self):
        for hour in range(24):
            np.testing.assert_array_equal(cyclical_features(hour, 24.0, 4),
                                          cyclical_features(hour + 24, 24.0, 4))
        for dow in range(7):
            np.testing.assert_array_equal(cyclical_features(dow, 7.0, 4),
                                          cyclical_features(dow + 7, 7.0, 4))

    @pytest.mark.parametrize("harmonics", (1, 2, 4, 8))
    def test_continuity_at_wraparound(self, harmonics):
        # phase gap of one minute; pair m rotates by theta_m = 2*pi*m*delta/P,
        # so the feature distance is bounded by sqrt(sum theta_m^2)
        delta = 1.0 / 60.0
        late = cyclical_features(24.0 - delta, 24.0, harmonics)
        zero = cyclical_features(0.0, 24.0, harmonics)
        bound = math.sqrt(sum((2 * math.pi * m * delta / 24.0) ** 2
                              for m in range(1, harmonics + 1)))
        assert np.linalg.norm(late - zero) <= bound + 1e-12


def per_event_features(events, table, config):
    """The featurization one event at a time, in float64, from the helpers.

    Text rows are zero and flagged where the attribute is NULL.
    """
    attrs = ("house_item", "room", "sensor_type")
    text = {slot: [] for slot in attrs}
    null = {slot: [] for slot in attrs}
    dow_feats, hour_feats, sec_ids = [], [], []
    for event in events:
        for slot in attrs:
            value = getattr(event.sensor, slot)
            blank = value is None or not value.strip()
            null[slot].append([float(blank)])
            text[slot].append(np.zeros(table.d_text) if blank else table.lookup(value))
        dow, hour, sec = utc_fields(event.timestamp)
        dow_feats.append(cyclical_features(dow, 7.0, config.harmonics))
        hour_feats.append(cyclical_features(hour, 24.0, config.harmonics))
        sec_ids.append(sec * config.seconds_buckets // 3600)
    return ([np.array(text[s]) for s in attrs] + [np.array(null[s]) for s in attrs]
            + [np.array(dow_feats), np.array(hour_feats), np.array(sec_ids)])


class TestFeaturizeEvents:
    def test_matches_per_event_path_cast_to_float32(self, table):
        # NULL and blank attributes, a token the table lacks, and timestamps
        # across days, hours, a week boundary and the last second of an hour
        gadget = Sensor("g1", "power", "unseen gadget", "kitchen")
        blank = Sensor("w2", "wearable", house_item="  ", room="")
        sensors = [STOVE, BED, WEARABLE, gadget, blank]
        stamps = [T0 + k * 7919 for k in range(60)] + [T0 - T0 % 3600 + 3599 + 86400 * 3]
        events = [Event(ts, sensors[i % len(sensors)], "ON" if i % 3 else "OFF")
                  for i, ts in enumerate(stamps)]
        config = toy_config(harmonics=3, seconds_buckets=60)
        feats = featurize_events(events, table, config)
        ids = feats.ids
        assert ids.dtype == np.int64 and ids.shape == (61, N_SLOTS)
        null = [ids[:, k] == NULL_ID for k in range(3)]
        got = ([np.where(null[k][:, None], 0, feats.text[s][ids[:, k]])
                for k, s in enumerate(("item", "room", "type"))]
               + [null[k][:, None].astype(np.float64) for k in range(3)]
               + [cyclical_table(7, config.harmonics)[ids[:, 3]],
                  cyclical_table(24, config.harmonics)[ids[:, 4]], ids[:, 5]])
        for array, expected in zip(got, per_event_features(events, table, config)):
            if array.dtype == np.float32:
                expected = expected.astype(np.float32)
            np.testing.assert_array_equal(array, expected)
        assert all(a.dtype == np.float32 for a in (*feats.text.values(),
                                                   cyclical_table(7, config.harmonics)))
        np.testing.assert_array_equal(ids[:, 6], [int(i % 3 == 0) for i in range(61)])
        assert {utc_fields(ts)[0] for ts in stamps} == set(range(7))

    def test_seconds_buckets(self, table):
        # 60 buckets of one minute each: seconds 0 and 59 share bucket 0
        hour = T0 - T0 % 3600
        events = [Event(hour + sec, STOVE, "OFF" if k % 2 else "ON")
                  for k, sec in enumerate((0, 59, 60, 3599))]
        feats = featurize_events(events, table, toy_config(seconds_buckets=60))
        assert feats.ids[:, 5].tolist() == [0, 0, 1, 59]

    def test_empty_stream(self, table):
        feats = featurize_events([], table, toy_config())
        assert len(feats) == 0 and feats.text["item"].shape == (0, 8)
        assert feats.ids.shape == (0, N_SLOTS)


class TestEmbedAttributeText:
    def test_table_hit_returns_stored_vector(self):
        from domusfm.embeddings import AttributeEmbeddingTable

        stored = np.linspace(0, 1, 8)
        table = AttributeEmbeddingTable(d_text=8, vectors={"stove": stored})
        feats = featurize_events([Event(T0, STOVE, "ON")], table, toy_config())
        np.testing.assert_array_equal(feats.text["item"][0], stored.astype(np.float32))

    def test_miss_matches_fallback_oracle(self, table):
        gadget = Sensor("g1", "power", "unseen gadget", "kitchen")
        feats = featurize_events([Event(T0, gadget, "ON")], table, toy_config())
        np.testing.assert_allclose(feats.text["item"][0],
                                   fallback_embedding("unseen gadget", 8), rtol=1e-6)

    def test_null_uses_learned_slot_vector(self, table):
        config = toy_config()
        params = make_params(config)
        blank = Sensor("w2", "wearable", house_item="  ", room="")
        for sensor in (WEARABLE, blank):  # None and blank attributes are both NULL
            feats = featurize_events([Event(T0, sensor, "ON")], table, config)
            assert feats.ids[0, 1] == NULL_ID
            assert not feats.text["room"].any()
        batch = batch_of([Event(T0, WEARABLE, "ON")], table, config)
        base = encode_batch(batch, params, config).data
        # the room slot reads only the learned NULL vector, never the text row
        batch.text["room"][:] = 5.0
        np.testing.assert_array_equal(encode_batch(batch, params, config).data, base)
        params["null_room"].data = params["null_room"].data + 1.0
        assert not np.allclose(encode_batch(batch, params, config).data, base)

    def test_mask_is_not_text_embedding_of_the_word(self, table):
        config = toy_config()
        params = make_params(config)
        masks = slot_masks(0)  # house item
        batch = batch_of([Event(T0, STOVE, "ON")], table, config, masks)
        base = encode_batch(batch, params, config).data
        batch.text["item"][:] = table.lookup("mask")
        np.testing.assert_array_equal(encode_batch(batch, params, config).data, base)
        params["mask_item"].data = params["mask_item"].data + 1.0
        assert not np.allclose(encode_batch(batch, params, config).data, base)

    def test_mask_wins_over_null(self, table):
        config = toy_config()
        params = make_params(config)
        event = Event(T0, WEARABLE, "ON")  # NULL item, masked below
        base = encode([event], table, params, config, slot_masks(0))
        params["null_item"].data = params["null_item"].data + 1.0
        np.testing.assert_array_equal(encode([event], table, params, config, slot_masks(0)),
                                      base)


class TestEncodeTemporal:
    def test_shapes_and_determinism(self, table):
        config = toy_config()
        params = make_params(config)
        event = Event(T0, STOVE, "ON")
        dow, hour, sec = utc_fields(T0)
        feats = featurize_events([event], table, config)
        np.testing.assert_array_equal(
            cyclical_table(7, config.harmonics)[feats.ids[0, 3]],
            cyclical_features(dow, 7.0, config.harmonics).astype(np.float32))
        np.testing.assert_array_equal(
            cyclical_table(24, config.harmonics)[feats.ids[0, 4]],
            cyclical_features(hour, 24.0, config.harmonics).astype(np.float32))
        assert feats.ids[0, 5] == sec * config.seconds_buckets // 3600
        a = encode([event], table, params, config)
        b = encode([event], table, params, config)
        assert a.shape == (1, config.d)
        np.testing.assert_array_equal(a, b)


class TestEncodeStatus:
    def test_deterministic_lookup(self, table):
        config = toy_config()
        params = make_params(config)
        events = [Event(T0, STOVE, "ON"), Event(T0 + 60, STOVE, "OFF")]
        np.testing.assert_array_equal(featurize_events(events, table, config).ids[:, 6],
                                      [0, 1])
        np.testing.assert_array_equal(encode(events, table, params, config),
                                      encode(events, table, params, config))

    def test_three_distinct_rows(self, table):
        config = toy_config()
        params = make_params(config)
        on, off = Event(T0, STOVE, "ON"), Event(T0, STOVE, "OFF")
        masked_batch = batch_of([on], table, config, slot_masks(6))
        assert masked_batch.ids[0, 0, 6] == MASK_ID  # the status table's last row
        rows = [encode([on], table, params, config)[0],
                encode([off], table, params, config)[0],
                encode_batch(masked_batch, params, config).data[0, 0]]
        assert not np.array_equal(rows[0], rows[1])
        assert not np.array_equal(rows[0], rows[2])
        assert not np.array_equal(rows[1], rows[2])
        assert params["status_table"].shape == (3, config.d)

    def test_unknown_rejected(self):
        # an unknown status cannot reach the encoder: events reject it
        with pytest.raises(ValueError, match="ON or OFF"):
            Event(T0, STOVE, "HALF")


class TestEncodeEvent:
    def test_pure_function_of_inputs(self, table):
        config = toy_config()
        params = make_params(config)
        event = Event(T0, STOVE, "ON")
        a = encode([event], table, params, config)
        b = encode([event], table, params, config)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, config.d)

    def test_masking_room_changes_output_only_via_room_slot(self, table):
        config = toy_config()
        params = make_params(config)
        event = Event(T0, STOVE, "ON")
        plain = batch_of([event], table, config, slot_masks())
        masked = batch_of([event], table, config, slot_masks(1))  # room slot
        assert not np.allclose(encode_batch(plain, params, config).data,
                               encode_batch(masked, params, config).data)
        # the other slot inputs are untouched: only the room id reads MASK
        for slot in ("item", "room", "type"):
            np.testing.assert_array_equal(plain.text[slot], masked.text[slot])
        expected = plain.ids.copy()
        expected[0, 0, 1] = MASK_ID
        np.testing.assert_array_equal(masked.ids, expected)

    def test_null_attributes_use_null_path(self, table):
        config = toy_config()
        params = make_params(config)
        event = Event(T0, WEARABLE, "ON")
        out = encode([event], table, params, config)
        assert np.isfinite(out).all()
        feats = featurize_events([event], table, config)
        np.testing.assert_array_equal(feats.ids[0, :3], [NULL_ID, NULL_ID, 0])

    def test_slot_identity_breaks_attribute_permutation(self, table):
        config = toy_config()
        params = make_params(config)
        s1 = Event(T0, BED, "ON")  # item=bed, room=bedroom
        swapped_sensor = Sensor("b_bed", "pressure", "bedroom", "bed")
        s2 = Event(T0, swapped_sensor, "ON")
        a = encode([s1], table, params, config)
        b = encode([s2], table, params, config)
        assert not np.allclose(a, b)

    def test_full_event_mask_gives_same_vector_for_different_events(self, table):
        config = toy_config()
        params = make_params(config)
        events = [Event(T0, STOVE, "ON"), Event(T0 + 4000, BED, "OFF")]
        rows = encode(events, table, params, config, np.ones((2, N_SLOTS)))
        # all slots masked: both events present only MASK vectors
        np.testing.assert_array_equal(rows[0], rows[1])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient_full_event_encoder(self, seed, table):
        config = toy_config()
        with precision("float64"):
            params = init_event_encoder(config, config.d, np.random.default_rng(seed))
            batch = batch_of(toy_events(n=2, seed=seed), table, config)
            rng = np.random.default_rng(seed + 50)
            r = Tensor(rng.normal(size=(1, 2, config.d)))

            def f():
                return tensor_sum(encode_batch(batch, params, config) * r)

            err = grad_check(f, list(params.tensors.values()), seed=seed)
        assert err < 1e-4


class TestBatchedEncoding:
    def test_batch_matches_single_event_path(self, table):
        # context-free: each event's row is the same, up to BLAS rounding, when
        # the event is encoded alone
        config = toy_config()
        params = make_params(config)
        events = toy_events(n=3, seed=1)
        out = encode(events, table, params, config)
        for i, event in enumerate(events):
            single = encode([event], table, params, config)
            np.testing.assert_allclose(out[i], single[0], rtol=1e-5, atol=1e-6)
