let c = 3
