let direct x = x + 1

let via_alias x = x + 2

let unused x = x + 3

let only_tests x = x + 4

let waived x = x + 5

let waived_bare x = x + 6
