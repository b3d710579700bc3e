"""Exactness oracles: straightforward reference implementations that the
property tests pin the simulator's fast paths to, bit for bit."""
