"""Coin ladder: what one delivered shared coin costs, end to end and per layer.

Entry point is ``python3 bench/run.py``; see ``bench/README.md``.
"""
