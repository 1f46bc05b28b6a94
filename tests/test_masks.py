import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxlift.masks import Mask, decode_mask, encode_mask, rasterize_convex_polygon
from reference import decode_rle_loop, point_in_mask


class TestDecode:
    def test_full_frame(self):
        mask = Mask((0, 12), 4, 3)
        bitmap = decode_mask(mask)
        assert bitmap.shape == (3, 4)
        assert bitmap.all()
        assert point_in_mask(mask, (3.9, 2.9))
        assert not point_in_mask(mask, (4.0, 0.0))

    def test_empty(self):
        mask = Mask((12,), 4, 3)
        assert not decode_mask(mask).any()
        assert not point_in_mask(mask, (1.5, 1.5))

    def test_checkerboard_matches_loop_decode(self):
        bitmap = np.indices((4, 4)).sum(axis=0) % 2 == 1
        mask = encode_mask(bitmap)
        decoded = decode_mask(mask)
        assert decoded.sum() == 8
        assert np.array_equal(decoded, bitmap)
        assert np.array_equal(decoded, decode_rle_loop(mask.rle, 4, 4))

    def test_sum_mismatch_raises(self):
        with pytest.raises(ValueError, match="sum to 7, expected 12"):
            Mask((3, 4), 4, 3)

    def test_negative_run_raises(self):
        with pytest.raises(ValueError, match="negative run length"):
            Mask((-1, 13), 4, 3)

    def test_point_in_mask_floors_continuous_coords(self):
        bitmap = np.zeros((3, 4), dtype=bool)
        bitmap[1, 2] = True
        mask = encode_mask(bitmap)
        assert point_in_mask(mask, (2.0, 1.0))
        assert point_in_mask(mask, (2.99, 1.99))
        assert not point_in_mask(mask, (3.0, 1.5))
        assert not point_in_mask(mask, (-0.5, 1.5))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12))
    def test_round_trip(self, seed, w, h):
        bitmap = np.random.default_rng(seed).random((h, w)) < 0.4
        mask = encode_mask(bitmap)
        assert sum(mask.rle) == w * h
        assert np.array_equal(decode_mask(mask), bitmap)
        assert np.array_equal(decode_rle_loop(mask.rle, w, h), bitmap)


class TestRasterize:
    def test_square_covers_expected_pixels(self):
        # Square [1, 4) x [1, 3): pixel centers 1.5..3.5 / 1.5..2.5 inside.
        bitmap = rasterize_convex_polygon([[1, 1], [4, 1], [4, 3], [1, 3]], 6, 5)
        expect = np.zeros((5, 6), dtype=bool)
        expect[1:3, 1:4] = True
        assert np.array_equal(bitmap, expect)

    def test_matches_point_membership(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            pts = rng.uniform(0, 20, (8, 2))
            from boxlift.geometry import convex_hull

            hull = convex_hull(pts)
            bitmap = rasterize_convex_polygon(hull.vertices, 20, 20)
            from reference import point_in_convex_polygon

            for r in range(20):
                for c in range(20):
                    inside = point_in_convex_polygon((c + 0.5, r + 0.5), hull.vertices, tol=1e-12)
                    on_edge = point_in_convex_polygon(
                        (c + 0.5, r + 0.5), hull.vertices, tol=1e-9
                    ) != point_in_convex_polygon((c + 0.5, r + 0.5), hull.vertices, tol=-1e-9)
                    if not on_edge:
                        assert bitmap[r, c] == inside

    def test_degenerate_polygon_empty(self):
        assert not rasterize_convex_polygon([[0, 0], [5, 5]], 10, 10).any()
