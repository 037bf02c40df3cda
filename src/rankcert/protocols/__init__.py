"""The interactive protocols, their message engine and certificate wire format."""
