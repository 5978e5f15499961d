"""Sample-aware test-time adaptation engine and benchmark harness."""

__version__ = "0.1.0"
