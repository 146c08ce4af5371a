package middleware

// RaceEnabled is raceEnabled, for the tests outside the package.
const RaceEnabled = raceEnabled
