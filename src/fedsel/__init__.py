"""Deterministic federated-learning simulator for comparing client-side
weight-selection strategies on synthetic non-IID data."""

__version__ = "0.1.0"
