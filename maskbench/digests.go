package main

// digestKey names one workload run by its seed.
type digestKey struct {
	workload string
	seed     int64
}

// recordedDigests holds, per workload and seed, the digests of the cells of
// one pass of each input variant (see variants), variant by variant in pass
// order, separated by spaces. Every pass of a run must reproduce them
// exactly. Seeds 0-20 are recorded; a run on another seed checks only that
// its passes and workers agree. To record a seed, run the workload on it
// and copy the "digest" lines it prints.
var recordedDigests = map[digestKey]string{
	{"contended", 0}:    "22970357 816eb948 cb47eeb6 ed65a404 8feeff3a 8d50f520 3beb7c07 a4ab04a5 32d08003",
	{"contended", 1}:    "ce52f97f 7de52d1c 9a2871c0 9ff502c6 3e19dadd ba30f5a6 a9f2bf3b 73625847 2b70c6bb",
	{"contended", 2}:    "cdc442a2 e5ac962d 59836156 fb82cfdd dc3b55a3 27ac0942 5c7e0a4a 8e75643d 6bcee52a",
	{"contended", 3}:    "5a1e54af 5573b96b f27b11ea 0d509beb 6ddd990f e7a3d374 bc77c0ca d7c08026 c9979d4f",
	{"contended", 4}:    "dc83e440 0759e7aa df92cfbb 14ec96a0 78f7e0f5 8eab3fe1 4ce78148 7b10ed37 1d950b18",
	{"contended", 5}:    "915b32d9 0270e9e7 5723487e 20441057 5d0f5eec 371b40d9 ba4986b1 6feeb516 991e8cd0",
	{"contended", 6}:    "977e4921 76fd4f87 e815921d 46eddccb 8c36c33c d14e604b 59a11268 130ea89c 37a0826a",
	{"contended", 7}:    "eab6ae2c 04df30b9 6b3009b4 941b65a7 826a71aa 19c129e4 2fc6bc3b 9e795590 25726103",
	{"contended", 8}:    "fb5299ba b2ea048c a87f31a6 f9375d12 f3e062e6 212f1739 66537aae 497b03da 3f66a485",
	{"contended", 9}:    "6e1b1993 8982c61b afa85f8c f44b94b8 0ad607ad dc89b340 ab3c6607 6fedd2f1 f968b60b",
	{"contended", 10}:   "82c8b46d 99363cf7 ace8dc8a e4e371bb f5e0b5a2 086086aa a7c7ef1a 8504de19 f4af96a7",
	{"contended", 11}:   "1920da04 17ac6b59 b57e4e30 fcdb5ea9 8eecf1a9 2836a4d7 af3cde06 ada08768 bf3fa156",
	{"contended", 12}:   "07bc1133 cf970078 a217ceb6 05d23b7c fafdf293 06372169 07a4b0ea 4bfa8440 f75e5c56",
	{"contended", 13}:   "92721df2 7317ad41 a74b7aff 1cd3da94 cc013a6f d18d423d 5775b56d 99042c60 ace4f198",
	{"contended", 14}:   "1700e079 06061a05 a23e0743 072e08ca 6dc59b59 1d396785 886d98db 3e47f21b 5d9eeebc",
	{"contended", 15}:   "b2747b16 0cad5a99 30edad57 cb20803f 2dd07b0c 89d378b8 e271fe96 9f892a03 aa4d6916",
	{"contended", 16}:   "288748f9 9c0f9625 b5cc859b f12950dd 12c9e0ed 698324a7 44364677 2950c705 efd96ef2",
	{"contended", 17}:   "791c5ff2 fc24f359 544f6425 42392a87 8356c157 6b3b8c33 3cdbe263 d7798aed cee4deaa",
	{"contended", 18}:   "fda5cf51 0963db9f ed5202aa 3ddc85f4 3b111906 8b3c9be1 401e0d94 4bf6fcb6 aa943007",
	{"contended", 19}:   "e2bbdac2 58b3f730 e21a6016 9875c140 92a314b2 16579f82 02baa4c8 1873fc60 c09264ad",
	{"contended", 20}:   "72ba25ce d6b54d37 1204086e f32320dd 172a6c5c ddec0cbe e6e21efb 913a6af4 103f8ffe",
	{"translation", 0}:  "b6e2b8a8 4c589a74",
	{"translation", 1}:  "a12d972c ab64aeee",
	{"translation", 2}:  "b7da4c6f 9614a0c9",
	{"translation", 3}:  "ae37be59 adb03ab7",
	{"translation", 4}:  "796a5450 1affb420",
	{"translation", 5}:  "a853c9bc 9c28d2cc",
	{"translation", 6}:  "5349ffbb 64710b60",
	{"translation", 7}:  "0fcdda9b b8fa4bd0",
	{"translation", 8}:  "ca31fb5c ad225a84",
	{"translation", 9}:  "9b663cd2 0d7f3ba2",
	{"translation", 10}: "4ec872e4 92803358",
	{"translation", 11}: "d60a6613 142435b9",
	{"translation", 12}: "eee32c89 204b9858",
	{"translation", 13}: "fc312c2e a0b91ddd",
	{"translation", 14}: "16754c0d 32b074c6",
	{"translation", 15}: "a60b6037 e8347c5d",
	{"translation", 16}: "f065c3fd 853f0acb",
	{"translation", 17}: "a5ec4a13 c616e702",
	{"translation", 18}: "864a5ae7 4db330ab",
	{"translation", 19}: "ec08afa4 c8995576",
	{"translation", 20}: "5a66c9d9 f44e5e55",
	{"paging", 0}:       "176d1616 58fbbb88 b681f042 6203c757 1b682abd 403e072d d404fb73 ef6b96d9",
	{"paging", 1}:       "c945864b 60475709 c8c151c8 b15e2805 955c5ee0 7a55d65d bbfec157 2d68de36",
	{"paging", 2}:       "7d515418 8790e9f1 aa577cd6 f1142bf0 afbce898 08b507c5 fd1b28c8 6f5bc468",
	{"paging", 3}:       "a6e1932b 07bbeae3 b566f450 624c483e 9f898c5b 4b7adab8 4a4b6e68 4e5b1a29",
	{"paging", 4}:       "b1489b1f 6ae9f705 cfaa393b b369cc41 a436015c 2288a581 e69ec5e4 d66434fa",
	{"paging", 5}:       "645742b0 1f05ad99 c43ce9b5 b11fad01 a8e9b778 2a326d5c 0263b45b b8cff1d2",
	{"paging", 6}:       "201e3bde 3e5386e7 6565237d e0356eb2 e3cd04ba ab6322a6 b363c6aa 57df295e",
	{"paging", 7}:       "96ac9715 6d30e875 d4b047c8 1dfc3d56 07a98a3e 3ed25dce 45955245 65913f38",
	{"paging", 8}:       "c0841bb7 92deeb65 87d79737 a09008b0 d2742743 cf79159a 633ef6aa ff4c4019",
	{"paging", 9}:       "cd4d1c66 fb082de0 1214a121 94abe4ca b5c22b0d 9df15ecd 2d2b5a5d 249e2cd3",
	{"paging", 10}:      "95451200 0846024a 679eff5a 2b243611 761ee726 e2c1deea 65a87395 f33b31bf",
	{"paging", 11}:      "9ffd50dd beacb7d7 f0a4336f 4a95e1c2 277bec7a 3757466a 4532197e f6067a99",
	{"paging", 12}:      "692c37cb 4f8487b5 e9edf6c3 cfdab2fe 8ba6c374 1daec37b c4547bf4 f62c4a38",
	{"paging", 13}:      "756d90a6 e1802d66 5c9c4ffb 48261b88 204652c0 0975736a 4f70e403 2d9a7740",
	{"paging", 14}:      "763a7bb6 4c9e9e64 fe409b5c c92a3e0e c80817f1 048bc6e0 a2bb69f8 1810c0da",
	{"paging", 15}:      "b35a244c 95d7ce34 974afe38 26fa8746 f31afa4e 9e6d9005 734ebe18 d43c1635",
	{"paging", 16}:      "7b45fee2 9ea4db2a 9eb2cc65 6b7088cf 23b80079 7d59b168 688f5f53 aeaace15",
	{"paging", 17}:      "55e38387 761f85a1 e1374b75 07642127 36a69c44 fbe4c531 8a554b8f 6b665029",
	{"paging", 18}:      "9d8d30a7 be714f13 2b79cbfe 9f546096 6f8abcae bab7a713 4af3f775 609b8b89",
	{"paging", 19}:      "f2462cdc b3bf33bf ef4e2f81 d70aedd1 79be6004 fc1d8c06 61047e59 a27a7c46",
	{"paging", 20}:      "f092060b bf0068fe 59b060c6 b19f5992 53e82a27 7162b3c6 a12d74cc f94d93b2",
}

// campaignDigest is the digest of a cold campaign's rendered tables, and
// campaignSimsExecuted the simulations it executes. Neither depends on the
// seed, which only reorders the jobs.
const (
	campaignDigest       = "d3d5a3855741"
	campaignSimsExecuted = 339
)
