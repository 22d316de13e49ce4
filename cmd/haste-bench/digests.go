package main

// expectedDigests are the output digests of seed 1 at the benchmark's own
// sizes: a run whose outputs differ is incorrect. A change that alters
// schedules on purpose updates them here, with the reason.
var expectedDigests = map[string]string{
	"paper-c4":    "3d8d21e71d54378a205c5f4845e4bd5dd5f442023288e138f7e6df6ea5c0d93e",
	"fleet-1e5":   "9d547ce3a007bab15613edeb72e7c9efc795ffb916e7752f5aadb2c1faf66f84",
	"serve-mixed": "663357a50bd197080fb55c05a8455b7c816f334f4cfe2309167fc728229201c4",
	"online-mem":  "d7f300afba87346e1266413632211d319be80d2dd3ede07faeeea4183b7c8f1f",
	"online-tcp":  "cd31accf3df9156764d2d4e2b34cf65dcefc97763c6d8f9a96f182e4a0e117e6",
}
