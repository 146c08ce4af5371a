// The benchmark is its own module so the repository's build does not depend
// on it; the module path sits under knncost/ so it may import knncost's
// internal packages, and the replace resolves knncost to the checkout.
module knncost/benchmark

go 1.22

require knncost v0.0.0

replace knncost => ../
