package server

// FlushThreshold exposes the output buffer's flush threshold to the
// external tests.
const FlushThreshold = flushThreshold
