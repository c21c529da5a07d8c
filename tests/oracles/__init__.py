"""Independent test oracles: slow, obviously-correct twins of shipped code."""
