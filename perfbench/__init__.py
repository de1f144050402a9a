"""Seeded end-to-end and per-layer benchmark for nbhd; see README.md."""
