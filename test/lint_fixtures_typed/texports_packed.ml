let a = 1

let b = 2
